"""Spans around the calls into each pogame module, installed from outside.

The program is not edited: each traced function is replaced, by attribute
assignment on its module or class, with a wrapper that records a span.
Callers inside pogame that look the function up through the module (or
through their own module globals) go through the wrapper; callers that bound
the function by name at import time do not, so their cost stays in the
caller's self time.  ``observables`` and ``qmat`` get no spans for that
reason: every caller imports their functions by name.

Span records are kept in memory and written out once the run ends, with
per-op aggregates (calls and self time per traced name) kept alongside.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

# pogame module -> traced functions.  The report renderers and parser are
# methods of CertificationReport and are added in ``Tracer.install``.
MODULE_FUNCTIONS = {
    "cli": ("main",),
    "report": ("build_report",),
    "bounds": (
        "local_bound",
        "local_bound_closed_form",
        "pnc_bound",
        "pnc_bound_symmetric",
        "strategy_behavior",
    ),
    "quantum_opt": ("seesaw", "bell_operator", "sos_certificate", "delta_check"),
    "selftest": ("build_selftest_operators", "build_circuit", "run_isometry", "verify_relations"),
    "certify": (
        "canonical_povm",
        "povm_statistics",
        "penalty_probabilities",
        "shifted_bell_value",
        "randomness_report",
        "extremality_check",
        "reconstruction_deviation",
    ),
    "gamecore": (
        "setup_from_family",
        "behavior_from_setup",
        "bell_value",
        "success_probability",
        "success_probability_direct",
        "steered_states",
        "check_operational_parity",
        "behavior_to_csv",
        "behavior_from_csv",
        "behavior_to_json",
        "behavior_from_json",
    ),
}

# CertificationReport.to_json/to_csv/to_text and from_json.
REPORT_METHOD_SPANS = ("report.render", "report.parse")
SPAN_NAMES = tuple(
    name
    for mod, fns in MODULE_FUNCTIONS.items()
    for name in [f"{mod}.{fn}" for fn in fns] + list(REPORT_METHOD_SPANS if mod == "report" else ())
)

SEESAW_TARGET_TOL = 1e-6


class Tracer:
    """Records nested spans and per-op aggregates for one single-threaded run."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.per_op: dict[int, dict[str, list[int]]] = {}  # op -> name -> [calls, self_ns]
        self.seesaw: dict[int, list[int]] = {}  # op -> [iterations, restarts, at optimum, converged]
        self._stack: list[list] = []  # open spans: [span index, child ns]
        self._originals: list[tuple] = []  # (owner, attribute, original value)

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.op_id])
            frame = [index, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index][1] = start
                self.spans[index][2] = end
                agg = self.per_op.setdefault(self.op_id, {}).setdefault(name, [0, 0])
                agg[0] += 1
                agg[1] += duration - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_seesaw(self, result) -> None:
        target = 2.0 * result.n
        stats = self.seesaw.setdefault(self.op_id, [0, 0, 0, 0])
        stats[0] += sum(len(trace) - 1 for trace in result.traces)
        stats[1] += len(result.restart_values)
        stats[2] += sum(1 for v in result.restart_values if abs(v - target) <= SEESAW_TARGET_TOL)
        stats[3] += sum(1 for c in result.converged if c)

    def install(self, package) -> None:
        """Replace every traced function of the imported ``pogame`` package."""
        for mod_name, fns in MODULE_FUNCTIONS.items():
            module = getattr(package, mod_name)
            for fn_name in fns:
                hook = self._record_seesaw if (mod_name, fn_name) == ("quantum_opt", "seesaw") else None
                self._replace(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", getattr(module, fn_name), hook))
        report_cls = package.report.CertificationReport
        for method in ("to_json", "to_csv", "to_text"):
            self._replace(report_cls, method, self._wrap("report.render", getattr(report_cls, method)))
        parse = report_cls.__dict__["from_json"].__func__
        self._replace(report_cls, "from_json", classmethod(self._wrap("report.parse", parse)))

    def _replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def layer_metrics(self, count_ops: list[int], time_ops: list[int]) -> dict[str, float]:
        """Per-op calls over ``count_ops`` and per-op self time over ``time_ops``.

        Counts come from a fixed prefix of the schedule so that they repeat
        exactly for a given seed; times average over every traced op.
        """
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls = sum(self.per_op.get(op, {}).get(name, (0, 0))[0] for op in count_ops)
            self_ns = sum(self.per_op.get(op, {}).get(name, (0, 0))[1] for op in time_ops)
            out[f"{name}.calls"] = calls / len(count_ops)
            out[f"{name}.self_ms"] = self_ns / 1e6 / len(time_ops)
        totals = [0, 0, 0, 0]
        for op in count_ops:
            for i, v in enumerate(self.seesaw.get(op, (0, 0, 0, 0))):
                totals[i] += v
        iterations, restarts, at_optimum, converged = totals
        out["quantum_opt.seesaw.iterations"] = iterations / len(count_ops)
        out["quantum_opt.seesaw.at_optimum_ratio"] = at_optimum / restarts if restarts else 0.0
        out["quantum_opt.seesaw.converged_ratio"] = converged / restarts if restarts else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start/end in ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
