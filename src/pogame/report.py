"""Certification report assembly and serialization.

Reports are plain nested dicts of JSON-able values wrapped in a dataclass,
so equality and round-trips are exact.  Numbers are serialized with 17
significant digits, which round-trips IEEE doubles bit-exactly; identical
inputs therefore produce byte-identical documents except for the provenance
timestamp.
"""

from __future__ import annotations

import datetime
import json
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import certify as certify_mod
from . import gamecore as gc
from . import quantum_opt as qo
from . import selftest as st
from .observables import ObservableFamily, canonical_family


def _fmt_float(v: float) -> str:
    if not np.isfinite(v):
        raise ValueError("reports must not contain non-finite numbers")
    return format(float(v), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": ' + render_json(v, indent + 1) for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-key projection used by the CSV format."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(flatten(v, f"{prefix}.{i}"))
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif isinstance(obj, (float, np.floating)):
        rows.append((prefix, _fmt_float(float(obj))))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))
    return rows


@dataclass(frozen=True)
class CertificationReport:
    n: int
    local_bound: int
    pnc_bound: int
    quantum_value: float
    success_probabilities: dict
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
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    def to_json(self) -> str:
        return render_json(self.to_dict()) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CertificationReport":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        rows = flatten(self.to_dict())
        return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)

    def to_text(self) -> str:
        rows = flatten(self.to_dict())
        width = max(len(k) for k, _ in rows)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


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
# passes, so one report certifies one setup.
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
    expr = gc.bell_expression(n)
    local_replay = gc.bell_value(expr, bounds_mod.strategy_behavior(local_w, n))
    pnc_replay = gc.bell_value(expr, bounds_mod.strategy_behavior(pnc_w, n))
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
        "constrained": result.constrained,
        "parity_residual": result.parity_residual,
        "converged": all(result.converged),
        "best_restart": result.best_restart,
    }
    steps = np.concatenate([np.diff(trace) for trace in result.traces])
    checks = [
        Check("see-saw reaches the quantum ceiling", abs(result.value - target), "<=", OPTIMUM_TOL),
        Check("see-saw traces are monotone", float(steps.min()) if steps.size else 0.0, ">=", -1e-9),
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


_TARGETS_3 = tuple(
    [f"A{x}" for x in (1, 2, 3)]
    + [f"B{y}" for y in (1, 2, 3)]
    + [f"A{x}B{y}" for x in (1, 2, 3) for y in (1, 2, 3)]
)
_TARGETS_5 = ("ZA", "XA", "YA", "ZB", "XB", "YB")


def selftest_section(setup: gc.QuantumSetup, perturb: float = 0.0) -> tuple[dict | None, list]:
    """Self-test of ``setup``; ``perturb`` is the perturbation its state carries, recorded as is."""
    if setup.n not in (3, 5):
        return None, []
    ops = st.build_selftest_operators(setup)
    circuit = st.build_circuit(ops)
    residuals = st.verify_relations(ops, setup.state)
    targets = _TARGETS_3 if setup.n == 3 else _TARGETS_5
    state_run, *runs = st.run_targets(setup, ops, circuit, ("state",) + targets)
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
    }
    checks = [
        Check("optimum relations hold", section["residual_max"], "<=", 1e-9),
        Check("state extraction is exact", state_run.fidelity, ">=", 1 - 1e-10),
        Check("measurement extractions are exact", section["extraction_entry_error_max"], "<=", 1e-9),
    ]
    return section, checks


def certify_section(fam: ObservableFamily, setup: gc.QuantumSetup, alpha: float) -> tuple[dict, dict, list]:
    n = setup.n
    povm = certify_mod.canonical_povm(fam)
    stats = certify_mod.povm_statistics(setup, povm)
    penalty_total = float(certify_mod.penalty_probabilities(setup, povm).sum())
    plain = qo.setup_bell_value(setup)
    shifted = certify_mod._shifted(plain, penalty_total, alpha)
    spectrum = povm.spectra.tolist()
    completeness = float(np.linalg.norm(sum(povm.elements) - np.eye(2), 2))
    rand = certify_mod.randomness_report(setup, povm)
    recon_dev = certify_mod.reconstruction_deviation(stats, povm) if n == 3 else None

    povm_section = {
        "alpha": alpha,
        "element_spectra": spectrum,
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
    spectrum_deviation = float(np.max(np.abs(np.array(spectrum) - [0.0, 2.0 / n])))
    uniform_deviation = float(np.max(np.abs(np.array(rand.outcome_probabilities) - 1.0 / n)))
    checks = [
        Check("POVM spectra are {0, 2/n}", spectrum_deviation, "<=", 1e-9),
        Check("POVM is complete", completeness, "<=", 1e-9),
        Check("outcome probabilities are uniform", uniform_deviation, "<=", 1e-9),
        # Compared through the flagged total, which does not scale with alpha.
        Check("shifted value matches the plain value", abs(penalty_total), "<=", 1e-9),
        Check("extremality matches the outcome-count rule", rand.extremal, "==", expected_extremal),
        Check("randomness certification matches extremality", rand.certified, "==", expected_extremal),
    ]
    if n == 3:
        checks.append(Check("gamma reconstruction round-trips", recon_dev, "<=", 1e-8))
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
    fam = canonical_family(n)
    setup = gc.setup_from_family(fam)
    bounds_sec, bounds_checks = bounds_section(n)
    opt_sec, opt_checks, result = optimization_section(n, seed, restarts, tol)
    sos_sec, sos_checks = sos_section(setup)
    self_sec, self_checks = selftest_section(setup)
    povm_sec, rand_sec, certify_checks = certify_section(fam, setup, alpha)

    # The bounds detail rides along inside the optimization dict so the
    # top-level schema stays stable across n.
    opt_sec = dict(opt_sec, bounds_detail=bounds_sec)
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
        sos=sos_sec,
        optimization=opt_sec,
        selftest=self_sec,
        povm=povm_sec,
        randomness=rand_sec,
        provenance=provenance(seed, tol, {"restarts": restarts, "alpha": alpha}),
    )
    return report, bounds_checks + opt_checks + sos_checks + self_checks + certify_checks
