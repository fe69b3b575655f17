"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every workload mixes a small and a large problem size at 2:1.  The schedule
is a sequence of blocks; each block holds two small-size ops and one
large-size op in a seeded order, so any whole number of blocks keeps the
mix exact.  The median then sits inside the small size's mode and the tail
inside the large size's.

``pipeline-small`` and ``pipeline-large`` run the CLI's ``report`` command
in-process.  At n in {3, 5} the see-saw and the dense self-test circuits do
the work; at n in {11, 13} the exact bound enumeration does (the self-test
section is skipped for n outside {3, 5}).  ``behaviors`` drives the
``gamecore`` library path that the pipeline never calls: the Born-rule
behavior table, its Bell value and success probabilities, steering, and the
CSV/JSON round-trips, on the canonical family under random local unitaries.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

BLOCK_SIZES = (0, 0, 1)  # indices into a workload's (small, large) sizes
FORMATS = ("json", "csv", "text")
LOG2_3 = math.log2(3)

# A pool of this many blocks is generated during set-up and cycled through.
POOL_BLOCKS = 32


@dataclass(frozen=True)
class Op:
    n: int
    seed: int = 0  # report seed (pipelines)
    fmt: str = "json"  # report format (pipelines)
    setup: object = None  # rotated QuantumSetup (behaviors)


def _schedule(rng: np.random.Generator, sizes: tuple[int, int], make_op) -> list[list[Op]]:
    blocks = []
    for b in range(POOL_BLOCKS):
        order = rng.permutation(len(BLOCK_SIZES))
        blocks.append([make_op(sizes[BLOCK_SIZES[k]], len(order) * b + i) for i, k in enumerate(order)])
    return blocks


class PipelineWorkload:
    """``pogame report --n N --seed S --format F`` through ``cli.main``."""

    def __init__(self, sizes: tuple[int, int], pogame):
        self.sizes = sizes
        self.pg = pogame
        # Oracle for the local bound: the closed form, independent of the enumeration.
        self.local_oracle = {n: pogame.bounds.local_bound_closed_form(n) for n in sizes}

    def make_blocks(self, rng: np.random.Generator) -> list[list[Op]]:
        def make_op(n, index):
            return Op(n=n, seed=int(rng.integers(0, 2**31 - 1)), fmt=FORMATS[index % len(FORMATS)])

        return _schedule(rng, self.sizes, make_op)

    def warmup_op(self, n: int) -> Op:
        """A fixed input, so that set-up time does not depend on the workload seed."""
        return Op(n=n, seed=0, fmt="json")

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        argv = ["report", "--n", str(op.n), "--seed", str(op.seed), "--format", op.fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.pg.cli.main(argv)
        return status, out.getvalue(), err.getvalue()

    def _fields(self, fmt: str, text: str) -> dict[str, str]:
        if fmt == "json":
            report_cls = self.pg.report.CertificationReport
            parsed = report_cls.from_json(text)
            # The round-trip keeps the provenance timestamp, so the documents
            # must agree byte for byte.
            if parsed.to_json() != text:
                raise ValueError("json report does not round-trip through from_json")
            return dict(self.pg.report.flatten(parsed.to_dict()))
        lines = text.splitlines()
        if fmt == "csv":
            if lines[0] != "key,value":
                raise ValueError("csv report lacks its header")
            return dict(line.split(",", 1) for line in lines[1:])
        return dict((line.split(None, 1) + [""])[:2] for line in lines)

    def check(self, op: Op, result) -> str | None:
        status, out, err = result
        if status != 0:
            return f"exit status {status}"
        failed = [line for line in err.splitlines() if line.startswith("[FAIL]")]
        if failed:
            return failed[0]
        try:
            f = self._fields(op.fmt, out)
            local, pnc = int(f["local_bound"]), int(f["pnc_bound"])
            value = float(f["quantum_value"])
            certified = f["randomness.certified"] == "true"
            entropy = float(f["randomness.min_entropy_bits"])
        except (KeyError, ValueError) as exc:
            return f"unreadable {op.fmt} report: {exc}"
        n = op.n
        if local != self.local_oracle[n]:
            return f"local bound {local} != closed form {self.local_oracle[n]}"
        if pnc != 2 * n - 2:
            return f"pnc bound {pnc} != 2n-2"
        if abs(value - 2 * n) > 1e-6:
            return f"quantum value {value} not within 1e-6 of 2n"
        if n == 3 and abs(entropy - LOG2_3) > 1e-9:
            return f"min-entropy {entropy} != log2(3)"
        if n >= 5 and certified:
            return "randomness certified at n >= 5"
        return None


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class BehaviorsWorkload:
    """Born-rule behavior, Bell value, steering and serialization round-trips."""

    def __init__(self, sizes: tuple[int, int], pogame):
        self.sizes = sizes
        self.pg = pogame
        gc = pogame.gamecore
        self.canonical = {n: gc.setup_from_family(pogame.observables.canonical_family(n)) for n in sizes}
        self.expr = {n: gc.bell_expression(n) for n in sizes}
        self.spec = {n: gc.GameSpec(n) for n in sizes}

    def make_blocks(self, rng: np.random.Generator) -> list[list[Op]]:
        gc = self.pg.gamecore

        def make_op(n, index):
            base = self.canonical[n]
            u, v = _haar_unitary(rng), _haar_unitary(rng)
            setup = gc.QuantumSetup(
                state=np.kron(u, v) @ base.state,
                alice=tuple(u @ a @ u.conj().T for a in base.alice),
                bob=tuple(v @ b @ v.conj().T for b in base.bob),
            )
            return Op(n=n, setup=setup)

        return _schedule(rng, self.sizes, make_op)

    def warmup_op(self, n: int) -> Op:
        """The canonical setup itself, so that set-up time does not depend on the seed."""
        return Op(n=n, setup=self.canonical[n])

    def run(self, op: Op):
        gc = self.pg.gamecore
        expr = self.expr[op.n]
        beh = gc.behavior_from_setup(op.setup)
        value = gc.bell_value(expr, beh)
        p_bell = gc.success_probability(expr, beh)
        p_direct = gc.success_probability_direct(self.spec[op.n], beh)
        parity = gc.check_operational_parity(gc.steered_states(op.setup))
        from_csv = gc.behavior_from_csv(gc.behavior_to_csv(beh))
        from_json = gc.behavior_from_json(gc.behavior_to_json(beh))
        return beh, value, p_bell, p_direct, parity, from_csv, from_json

    def check(self, op: Op, result) -> str | None:
        beh, value, p_bell, p_direct, parity, from_csv, from_json = result
        if abs(value - 2 * op.n) > 1e-9:
            return f"Bell value {value} moved from 2n under local unitaries"
        if abs(p_bell - p_direct) > 1e-12:
            return f"success probability {p_bell} != direct {p_direct}"
        if parity > 1e-9:
            return f"operational parity {parity} > 1e-9"
        if not np.array_equal(from_csv.table, beh.table):
            return "csv round-trip is not bit-exact"
        if not np.array_equal(from_json.table, beh.table):
            return "json round-trip is not bit-exact"
        return None


WORKLOADS = {
    "pipeline-small": (PipelineWorkload, (3, 5)),
    "pipeline-large": (PipelineWorkload, (11, 13)),
    "behaviors": (BehaviorsWorkload, (21, 41)),
}


def make_workload(name: str, pogame):
    cls, sizes = WORKLOADS[name]
    return cls(sizes, pogame)
