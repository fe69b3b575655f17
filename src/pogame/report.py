"""Certification report assembly and serialization.

``build_report`` runs the bounds, then the see-saw, and certifies the setup
the see-saw found in every later section: the SOS certificate, the swap
self-test and the POVM and randomness checks.  No second, canonical setup
is built.

Reports are plain nested dicts of JSON-able values wrapped in a dataclass,
so equality and round-trips are exact.  Numbers are serialized with 17
significant digits, which round-trips IEEE doubles bit-exactly; identical
inputs therefore produce byte-identical documents except for the provenance
timestamp.

``CertificationReport`` is the one schema of the command line's output:
each command prints its sections under the report's field names, and
``CertificationReport.from_dict`` checks a document against the fields and
their annotated types.

Each format is one typed pass over the tree: ``render_json`` and ``flatten``
test a node for the exact leaf types ``float`` and ``int`` first, then for
the containers ``list``, ``tuple`` and ``dict``, and ``flatten`` appends to
one row list.  Other leaves (numpy scalars, ``bool``, ``None``, ``str``,
subclasses) fall through to one ``isinstance`` chain, in the order that
decides the output (``bool`` before ``int``), so the bytes and the errors
match the plain recursive ``isinstance`` walk: non-finite numbers raise
``ValueError``, and types JSON cannot hold raise ``TypeError``.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import certify as certify_mod
from . import gamecore as gc
from . import quantum_opt as qo
from . import selftest as st


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("reports must not contain non-finite numbers")
    return format(v, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _json(obj, "  " * indent)


def _json(obj, pad: str) -> str:
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is int:
        return str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = ",\n".join([inner + _json(v, inner) for v in obj])
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join([f'{inner}"{k}": {_json(v, inner)}' for k, v in obj.items()])
        return f"{{\n{items}\n{pad}}}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-key projection used by the CSV format."""
    rows: list[tuple[str, str]] = []
    _flatten(obj, prefix, rows)
    return rows


def _flatten(obj, prefix: str, rows: list) -> None:
    kind = type(obj)
    if kind is float:
        rows.append((prefix, _fmt_float(obj)))
    elif kind is int:
        rows.append((prefix, str(obj)))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", rows)
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif isinstance(obj, (float, np.floating)):
        rows.append((prefix, _fmt_float(float(obj))))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))


@dataclass(frozen=True)
class CertificationReport:
    """One report document; its fields and their annotations are the schema ``from_dict`` checks."""

    n: int
    local_bound: int
    pnc_bound: int
    quantum_value: float
    success_probabilities: dict
    bounds: dict
    sos: dict
    optimization: dict
    selftest: dict | None
    povm: dict
    randomness: dict
    provenance: dict

    def __post_init__(self):
        if not self.pnc_bound <= self.quantum_value + 1e-9:
            raise ValueError("report violates pnc_bound <= quantum_value")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CertificationReport":
        """The report ``d`` holds; ``ValueError`` names the first missing, unknown or mistyped field."""
        if not isinstance(d, dict):
            raise ValueError(f"a report must be an object, got {type(d).__name__}")
        for name, (admitted, what) in _SCHEMA.items():
            if name not in d:
                raise ValueError(f"report is missing field {name!r}")
            value = d[name]
            if isinstance(value, bool) or not isinstance(value, admitted):
                raise ValueError(f"report field {name!r} must be {what}, got {type(value).__name__}")
        unknown = [key for key in d if key not in _SCHEMA]
        if unknown:
            raise ValueError(f"report has unknown field {unknown[0]!r}")
        return cls(**d)

    def to_json(self) -> str:
        return render_json(self.to_dict()) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CertificationReport":
        return cls.from_dict(json.loads(text, parse_constant=_refuse_constant))

    def to_csv(self) -> str:
        rows = flatten(self.to_dict())
        return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)

    def to_text(self) -> str:
        rows = flatten(self.to_dict())
        width = max(len(k) for k, _ in rows)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


#: The values a field's annotation admits, and how an error names them.  A
#: float field takes an int too, since 17 significant digits print 6.0 as
#: ``6``; no field takes a bool.
_ADMITTED = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "dict": ((dict,), "an object"),
    "dict | None": ((dict, type(None)), "an object or null"),
}
_SCHEMA = {f.name: _ADMITTED[f.type] for f in fields(CertificationReport)}


def _refuse_constant(literal: str):
    # JSON has no NaN or Infinity; a report holding one could not be written back.
    raise ValueError(f"a report must not contain {literal}")


def provenance(seed: int, tol: float, extra: dict | None = None) -> dict:
    out = {
        "seed": seed,
        "tolerance": tol,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        out.update(extra)
    return out


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}

#: How far a see-saw value may sit from the quantum ceiling and still count as the optimum.
OPTIMUM_TOL = 1e-6


@dataclass(frozen=True)
class Check:
    """One certified invariant: ``value relation bound``, e.g. ``gap <= 1e-9``."""

    name: str
    value: float | int | bool
    relation: str  # one of "<", "<=", ">=", "=="
    bound: float | int | bool

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))


# ---------------------------------------------------------------------------
# Section builders.  Each returns its section dict and a list of Checks.
# The SOS, self-test and certify sections certify the setup their caller
# passes; build_report passes the see-saw's optimum to each, so one report
# certifies the one setup it found.
# ---------------------------------------------------------------------------


def bounds_section(n: int) -> tuple[dict, list]:
    local, local_w = bounds_mod.local_bound(n)
    pnc, pnc_w = bounds_mod.pnc_bound(n)
    section = {
        "local_bound": local,
        "local_witness": {"a": list(local_w.a), "b": list(local_w.b)},
        "pnc_bound": pnc,
        "pnc_witness": {"a": list(pnc_w.a), "b": list(pnc_w.b)},
        "pnc_bound_symmetric": bounds_mod.pnc_bound_symmetric(n),
        "local_bound_closed_form": bounds_mod.local_bound_closed_form(n),
        "quantum_ceiling": qo.concavity_bound(n),
    }
    # Each witness is replayed on the Bell expression itself, with no behavior
    # table: a product strategy's correlator is a_x b_y (Alice's 0 is her
    # unbiased response), so its value is a^T (J - 2I) b, the row action of
    # J - 2I on a dotted with b.  The values are integers, exact either way.
    local_replay, pnc_replay = (
        float(gc.setting_combinations(np.array(w.a)) @ np.array(w.b)) for w in (local_w, pnc_w)
    )
    checks = [
        Check("local witness replays its bound", abs(local_replay - local), "<", 1e-12),
        Check("pnc witness replays its bound", abs(pnc_replay - pnc), "<", 1e-12),
        Check("pnc bound equals 2n-2", pnc, "==", 2 * n - 2),
        Check("closed form matches enumeration", section["local_bound_closed_form"], "==", local),
        Check("local dominates pnc", local, ">=", pnc),
    ]
    return section, checks


def optimization_section(n: int, seed: int, restarts: int, tol: float) -> tuple[dict, list, qo.SeesawResult]:
    result = qo.seesaw(n, seed=seed, restarts=restarts, tol=tol)
    target = qo.concavity_bound(n)
    hits = sum(1 for v in result.restart_values if abs(v - target) <= OPTIMUM_TOL)
    section = {
        "value": result.value,
        "target": target,
        "restart_values": list(result.restart_values),
        "restarts_at_optimum": hits,
        "parity_residual": result.parity_residual,
        "converged": all(result.converged),
        "best_restart": result.best_restart,
    }
    steps = [later - earlier for trace in result.traces for earlier, later in zip(trace, trace[1:])]
    # The game's quantum value is the optimum over parity-oblivious strategies only.
    parity = gc.operational_parity(result.setup)
    checks = [
        Check("see-saw reaches the quantum ceiling", abs(result.value - target), "<=", OPTIMUM_TOL),
        Check("see-saw traces are monotone", min(steps, default=0.0), ">=", -1e-9),
        Check("see-saw restarts converged", all(result.converged), "==", True),
        Check("found setup is parity oblivious", parity, "<=", 1e-9),
    ]
    return section, checks, result


def sos_section(setup: gc.QuantumSetup) -> tuple[dict, list]:
    cert = qo.sos_certificate(setup)
    section = {
        "omegas": [float(w) for w in cert.omegas],
        "residual_max": float(np.max(cert.residuals)),
        "gap": cert.gap,
        "bell_value": cert.bell_value,
        "delta_expectation": cert.delta_expectation,
    }
    checks = [
        Check("certificate gap closes", abs(cert.gap), "<=", 1e-9),
        Check("defect vectors vanish", section["residual_max"], "<=", 1e-9),
        Check("anticommutator sum at its floor", abs(cert.delta_expectation + setup.n), "<=", 1e-9),
    ]
    return section, checks


def selftest_section(setup: gc.QuantumSetup, perturb: float = 0.0) -> tuple[dict, list]:
    """Self-test of ``setup``; ``perturb`` is the perturbation its state carries, recorded as is.

    The circuit runs the state and the frame targets only.  Each raw
    observable is covered by its frame coordinates, and Alice's coordinates
    ``C`` are checked against the correlators ``E_xy = <psi|A_x (x) B_y|psi>``:
    at the optimum their Gram matrix is ``C C^T = -E``.
    """
    ops = st.build_selftest_operators(setup)
    residuals = st.verify_relations(ops, setup.state)
    state_run, *runs = st.run_targets(setup, ops, st.build_circuit(ops), st.all_targets(ops))
    coords, leftover = st.frame_coordinates(ops)
    alice, bob, corr = setup.pauli_form
    correlators = alice @ corr @ bob.T
    extraction_errors = {run.target: run.max_entry_error for run in runs}
    section = {
        "perturbation": perturb,
        "relation_residuals": {k: float(v) for k, v in residuals.items()},
        "residual_max": float(max(residuals.values())),
        "state_fidelity": state_run.fidelity,
        "junk_fidelity": state_run.junk_fidelity,
        "extraction_entry_errors": extraction_errors,
        "extraction_fidelities": {run.target: run.fidelity for run in runs},
        "extraction_entry_error_max": float(max(extraction_errors.values())),
        "frame_coordinates": coords[0].tolist(),
        "frame_leftover_max": float(leftover.max()),
        "gram_deviation": float(np.max(np.abs(coords[0] @ coords[0].T + correlators))),
    }
    checks = [
        Check("optimum relations hold", section["residual_max"], "<=", 1e-9),
        Check("state extraction is exact", state_run.fidelity, ">=", 1 - 1e-10),
        Check("measurement extractions are exact", section["extraction_entry_error_max"], "<=", 1e-9),
        Check("observables lie in the swap frame", section["frame_leftover_max"], "<=", 1e-8),
        Check("self-tested Gram matches the correlators", section["gram_deviation"], "<=", 1e-9),
    ]
    return section, checks


def certify_section(setup: gc.QuantumSetup, alpha: float) -> tuple[dict, dict, list]:
    n = setup.n
    povm = certify_mod.canonical_povm(setup)
    stats = certify_mod.povm_statistics(setup, povm)
    penalty_total = float(stats.penalties.sum())
    plain = qo.setup_bell_value(setup)
    shifted = certify_mod._shifted(plain, penalty_total, alpha)
    completeness = povm.completeness_deviation
    rand = certify_mod.randomness_from_marginals(stats.marginals, povm)
    recon_dev = certify_mod.reconstruction_deviation(setup, stats, povm)

    povm_section = {
        "alpha": alpha,
        "element_spectra": povm.spectra.tolist(),
        "completeness_deviation": completeness,
        "outcome_probabilities": list(rand.outcome_probabilities),
        "penalty_total": penalty_total,
        "shifted_bell_value": shifted,
        "bell_value": plain,
        "extremal": rand.extremal,
        "reconstruction_deviation": recon_dev,
    }
    randomness_section = {
        "guessing_probability": rand.guessing_probability,
        "min_entropy_bits": rand.min_entropy_bits,
        "certified": rand.certified,
    }
    expected_extremal = n == 3
    spectrum_deviation = float(np.abs(povm.spectra - (0.0, 2.0 / n)).max())
    uniform_deviation = float(np.abs(stats.marginals - 1.0 / n).max())
    checks = [
        Check("POVM spectra are {0, 2/n}", spectrum_deviation, "<=", 1e-9),
        Check("POVM is complete", completeness, "<=", 1e-9),
        Check("outcome probabilities are uniform", uniform_deviation, "<=", 1e-9),
        # Compared through the flagged total, which does not scale with alpha.
        Check("shifted value matches the plain value", abs(penalty_total), "<=", 1e-9),
        Check("extremality matches the outcome-count rule", rand.extremal, "==", expected_extremal),
        Check("randomness certification matches extremality", rand.certified, "==", expected_extremal),
        Check("gamma reconstruction round-trips", recon_dev, "<=", 1e-8),
    ]
    if n == 3:
        checks.append(Check("min-entropy equals log2(3)", abs(rand.min_entropy_bits - np.log2(3)), "<=", 1e-9))
    return povm_section, randomness_section, checks


def build_report(
    n: int,
    seed: int = qo.SEED,
    restarts: int = qo.RESTARTS,
    tol: float = qo.TOL,
    alpha: float = certify_mod.ALPHA,
) -> tuple[CertificationReport, list[Check]]:
    """Full pipeline report plus the Checks of every section, in pipeline order."""
    bounds_sec, bounds_checks = bounds_section(n)
    opt_sec, opt_checks, result = optimization_section(n, seed, restarts, tol)
    setup = result.setup
    sos_sec, sos_checks = sos_section(setup)
    # The self-test holds for every odd n (``pogame selftest --n``), but the
    # report runs it only at n = 3 and 5: at n = 11 and 13 it would add
    # 1.0-1.6 ms to a 2.1-3.4 ms report (2 vCPUs, one BLAS thread, medians
    # of interleaved runs), a third or more.
    self_sec, self_checks = selftest_section(setup) if n in (3, 5) else (None, [])
    povm_sec, rand_sec, certify_checks = certify_section(setup, alpha)

    succ = {
        "quantum": gc.success_probability_at(n, result.value),
        "pnc": gc.success_probability_at(n, bounds_sec["pnc_bound"]),
        "local": gc.success_probability_at(n, bounds_sec["local_bound"]),
    }
    report = CertificationReport(
        n=n,
        local_bound=bounds_sec["local_bound"],
        pnc_bound=bounds_sec["pnc_bound"],
        quantum_value=result.value,
        success_probabilities=succ,
        bounds=bounds_sec,
        sos=sos_sec,
        optimization=opt_sec,
        selftest=self_sec,
        povm=povm_sec,
        randomness=rand_sec,
        provenance=provenance(seed, tol, {"restarts": restarts, "alpha": alpha}),
    )
    return report, bounds_checks + opt_checks + sos_checks + self_checks + certify_checks
