"""Command-line driver for the oblivious-game certification pipeline.

Every command prints one JSON document on stdout, with its sections under
the names of ``report.CertificationReport``'s fields (``report --format
csv`` and ``text`` print that document's rows), and one check line per
invariant on stderr.

Exit status: 0 when every checked invariant holds within tolerance, 1 when
any certification check fails or a stage raises ``CertificationError``, 2
on usage errors (argparse's convention) and any other ``ValueError``.
Note that for five or more settings the *correct* outcome is a
non-extremal POVM with uncertified randomness, so ``certify --n 5``
exits 0 precisely when certification fails in that expected way.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import quantum_opt as qo
from . import report as report_mod
from .certify import ALPHA
from .gamecore import CertificationError, check_n
from .observables import canonical_family
from .report import Check, provenance, render_json
from .selftest import perturbed_state

ENV_SEED = "POGAME_SEED"
# The library takes any odd n, but the POVM statistics are an n x n x 2 table
# (1.6 GB at n = 10001), so the command line caps n.  At n = 1001 a report
# takes about 0.1 s (one 2-vCPU core, one BLAS thread).
MAX_N = 1001
# Past this the perturbed state is |00> to within 1e-6 in amplitude; far past
# it (about 1e154) its norm overflows.
MAX_PERTURB = 1e6
# The see-saw runs r restarts as (r, n, 4) stacks: at n = 1001, report peaks
# at 62 MB with 8 restarts, 81 MB with 64 and 142 MB with 256.
MAX_RESTARTS = 64


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return qo.SEED
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{ENV_SEED} must be a non-negative integer, got {seed}")
    return seed


def _odd_n(value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {value!r}") from exc
    try:
        check_n(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if n > MAX_N:
        raise argparse.ArgumentTypeError(f"n must be at most {MAX_N}, got {n}")
    return n


def _seed(value: str) -> int:
    try:
        seed = int(value)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value}")


def _restarts(value: str) -> int:
    try:
        restarts = int(value)
        if 1 <= restarts <= MAX_RESTARTS:
            return restarts
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"restarts must be an integer from 1 to {MAX_RESTARTS}, got {value}")


def _tol(value: str) -> float:
    try:
        tol = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tol must be a number, got {value!r}") from exc
    try:
        return qo.check_tol(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_alpha(value: str) -> float:
    try:
        alpha = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {value!r}") from exc
    if not 0 < alpha < float("inf"):
        raise argparse.ArgumentTypeError(f"alpha must be strictly positive and finite, got {alpha}")
    return alpha


def _perturbation(value: str) -> float:
    try:
        delta = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"perturb must be a number, got {value!r}") from exc
    if not abs(delta) <= MAX_PERTURB:
        raise argparse.ArgumentTypeError(f"perturb must be finite with |perturb| <= {MAX_PERTURB:g}, got {delta}")
    return delta


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="pogame",
        description="Bounds, quantum optimum, self-testing and POVM/randomness "
        "certification for the n-input oblivious game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="local and PNC bounds with witnesses")
    p_bounds.add_argument("--n", type=_odd_n, required=True)

    p_opt = sub.add_parser("optimize", help="see-saw value plus certificate")
    p_opt.add_argument("--n", type=_odd_n, required=True)
    p_opt.add_argument("--seed", type=_seed, default=None)
    p_opt.add_argument("--restarts", type=_restarts, default=qo.RESTARTS)
    p_opt.add_argument("--tol", type=_tol, default=qo.TOL)

    p_self = sub.add_parser("selftest", help="swap-circuit relations and extractions")
    p_self.add_argument("--n", type=_odd_n, required=True)
    p_self.add_argument("--perturb", type=_perturbation, default=0.0)

    p_cert = sub.add_parser("certify", help="POVM certification and randomness")
    p_cert.add_argument("--n", type=_odd_n, required=True)
    p_cert.add_argument("--alpha", type=_positive_alpha, default=ALPHA)

    p_rep = sub.add_parser("report", help="full pipeline report")
    p_rep.add_argument("--n", type=_odd_n, required=True)
    p_rep.add_argument("--seed", type=_seed, default=None)
    p_rep.add_argument("--restarts", type=_restarts, default=qo.RESTARTS)
    p_rep.add_argument("--tol", type=_tol, default=qo.TOL)
    p_rep.add_argument("--alpha", type=_positive_alpha, default=ALPHA)
    p_rep.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_rep.add_argument("--out", default=None)

    return parser


def _emit_checks(checks: list[Check]) -> bool:
    """Print one line per check on stderr, with its value and bound on FAIL; True if all passed."""
    for c in checks:
        line = f"[PASS] {c.name}" if c.passed else f"[FAIL] {c.name}  ({c.value} {c.relation} {c.bound})"
        print(line, file=sys.stderr)
    return all(c.passed for c in checks)


def _cmd_bounds(args) -> int:
    section, checks = report_mod.bounds_section(args.n)
    print(render_json({"n": args.n, "bounds": section}))
    return 0 if _emit_checks(checks) else 1


def _cmd_optimize(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    section, checks, result = report_mod.optimization_section(args.n, seed, args.restarts, args.tol)
    # Only the see-saw checks decide the exit code; the SOS data of the found setup rides along.
    sos, _ = report_mod.sos_section(result.setup)
    payload = {
        "n": args.n,
        "optimization": section,
        "sos": sos,
        "provenance": provenance(seed, args.tol, {"restarts": args.restarts}),
    }
    print(render_json(payload))
    return 0 if _emit_checks(checks) else 1


def _cmd_selftest(args) -> int:
    setup = canonical_family(args.n)
    if args.perturb:
        setup = dataclasses.replace(setup, state=perturbed_state(args.perturb))
    section, checks = report_mod.selftest_section(setup, perturb=args.perturb)
    print(render_json({"n": args.n, "selftest": section}))
    return 0 if _emit_checks(checks) else 1


def _cmd_certify(args) -> int:
    setup = canonical_family(args.n)
    povm_sec, rand_sec, checks = report_mod.certify_section(setup, args.alpha)
    print(render_json({"n": args.n, "povm": povm_sec, "randomness": rand_sec}))
    return 0 if _emit_checks(checks) else 1


def _cannot_write(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write the report to {path}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Fail before the pipeline runs if ``path`` cannot be opened for writing.

    Append mode leaves an existing file's bytes alone; a file this check
    creates is removed again, so a run that fails later leaves nothing behind.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if not existed:
        os.remove(path)


def _cmd_report(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.out:
        _check_writable(args.out)
    report, checks = report_mod.build_report(
        args.n, seed=seed, restarts=args.restarts, tol=args.tol, alpha=args.alpha
    )
    rendered = getattr(report, f"to_{args.format}")()  # --format is one of json, csv, text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise _cannot_write(args.out, exc) from None
    else:
        sys.stdout.write(rendered)
    return 0 if _emit_checks(checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "bounds": _cmd_bounds,
        "optimize": _cmd_optimize,
        "selftest": _cmd_selftest,
        "certify": _cmd_certify,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except CertificationError as exc:  # a ValueError too: caught first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
