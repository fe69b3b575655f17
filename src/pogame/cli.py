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


def _number(name: str, parse: type, ok=None, wanted: str = "", home=None):
    """The argparse type of the numeric flag ``name``.

    ``parse`` (``int`` or ``float``) reads the text.  The value must then
    pass ``home``, the check where the flag's rule already lives (it raises
    ``ValueError``), and ``ok``, a limit of the command line's own that the
    value meets when it is ``wanted``.  A refusal raises ``error``;
    ``POGAME_SEED`` is read with ``ValueError``, under its own ``name``.
    """
    kind = "an integer" if parse is int else "a number"

    def convert(text: str, name: str = name, error: type[Exception] = argparse.ArgumentTypeError):
        try:
            value = parse(text)
        except ValueError:
            raise error(f"{name} must be {kind}, got {text!r}") from None
        try:
            if home is not None:
                home(value)
        except ValueError as exc:
            raise error(str(exc)) from None
        if ok is not None and not ok(value):
            raise error(f"{name} must be {wanted}, got {value}")
        return value

    return convert


_odd_n = _number("n", int, lambda n: n <= MAX_N, f"at most {MAX_N}", home=check_n)
_seed = _number("seed", int, lambda s: s >= 0, "a non-negative integer")
_restarts = _number("restarts", int, lambda r: 1 <= r <= MAX_RESTARTS, f"an integer from 1 to {MAX_RESTARTS}")
_tol = _number("tol", float, home=qo.check_tol)
_alpha = _number("alpha", float, lambda a: 0 < a < float("inf"), "strictly positive and finite")
_perturb = _number("perturb", float, lambda d: abs(d) <= MAX_PERTURB, f"finite with |perturb| <= {MAX_PERTURB:g}")

# Each flag once: its argparse keywords.  A subcommand names the flags it takes.
FLAGS = {
    "--n": {"type": _odd_n, "required": True},
    "--seed": {"type": _seed, "default": None},
    "--restarts": {"type": _restarts, "default": qo.RESTARTS},
    "--tol": {"type": _tol, "default": qo.TOL},
    "--perturb": {"type": _perturb, "default": 0.0},
    "--alpha": {"type": _alpha, "default": ALPHA},
    "--format": {"choices": ("json", "csv", "text"), "default": "json"},
    "--out": {"default": None},
}


def _run_seed(args) -> int:
    """``--seed``, else ``POGAME_SEED`` read through the same rule, else the see-saw's default."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    return qo.SEED if raw is None else _seed(raw, ENV_SEED, ValueError)


def _emit_checks(checks: list[Check]) -> bool:
    """Print one line per check on stderr, with its value and bound on FAIL; True if all passed."""
    for c in checks:
        line = f"[PASS] {c.name}" if c.passed else f"[FAIL] {c.name}  ({c.value} {c.relation} {c.bound})"
        print(line, file=sys.stderr)
    return all(c.passed for c in checks)


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


def _finish(text: str, checks: list[Check], out: str | None = None) -> int:
    """Write the document to ``out`` or stdout and the checks to stderr; the exit code."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _cannot_write(out, exc) from None
    else:
        sys.stdout.write(text)
    return 0 if _emit_checks(checks) else 1


def _cmd_bounds(args) -> int:
    section, checks = report_mod.bounds_section(args.n)
    return _finish(render_json({"n": args.n, "bounds": section}) + "\n", checks)


def _cmd_optimize(args) -> int:
    seed = _run_seed(args)
    section, checks, result = report_mod.optimization_section(args.n, seed, args.restarts, args.tol)
    # Only the see-saw checks decide the exit code; the SOS data of the found setup rides along.
    sos, _ = report_mod.sos_section(result.setup)
    payload = {
        "n": args.n,
        "optimization": section,
        "sos": sos,
        "provenance": provenance(seed, args.tol, {"restarts": args.restarts}),
    }
    return _finish(render_json(payload) + "\n", checks)


def _cmd_selftest(args) -> int:
    setup = canonical_family(args.n)
    if args.perturb:
        setup = dataclasses.replace(setup, state=perturbed_state(args.perturb))
    section, checks = report_mod.selftest_section(setup, perturb=args.perturb)
    return _finish(render_json({"n": args.n, "selftest": section}) + "\n", checks)


def _cmd_certify(args) -> int:
    povm_sec, rand_sec, checks = report_mod.certify_section(canonical_family(args.n), args.alpha)
    return _finish(render_json({"n": args.n, "povm": povm_sec, "randomness": rand_sec}) + "\n", checks)


def _cmd_report(args) -> int:
    seed = _run_seed(args)
    if args.out:
        _check_writable(args.out)
    report, checks = report_mod.build_report(
        args.n, seed=seed, restarts=args.restarts, tol=args.tol, alpha=args.alpha
    )
    rendered = getattr(report, f"to_{args.format}")()  # --format is one of json, csv, text
    return _finish(rendered, checks, args.out)


# Each subcommand once: its help, the flags it takes (keys of FLAGS without
# the dashes) and its handler.
COMMANDS = {
    "bounds": ("local and PNC bounds with witnesses", "n", _cmd_bounds),
    "optimize": ("see-saw value plus certificate", "n seed restarts tol", _cmd_optimize),
    "selftest": ("swap-circuit relations and extractions", "n perturb", _cmd_selftest),
    "certify": ("POVM certification and randomness", "n alpha", _cmd_certify),
    "report": ("full pipeline report", "n seed restarts tol alpha format out", _cmd_report),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="pogame",
        description="Bounds, quantum optimum, self-testing and POVM/randomness "
        "certification for the n-input oblivious game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[f"--{flag}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, _, handler = COMMANDS[args.command]
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
