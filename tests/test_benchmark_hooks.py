"""The benchmark's hook points and oracles, checked against the current package.

The traced run replaces pogame functions by name, so those names must
resolve; each workload's ``check`` holds its output oracles, so the
warm-up ops must pass them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import pogame
from pogame.report import CertificationReport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load("tracing")
    assert "build_circuit" in tracing.MODULE_FUNCTIONS["selftest"]
    for mod_name, fns in tracing.MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"pogame.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"pogame.{mod_name}.{fn}"


def test_traced_report_methods_resolve():
    methods = CertificationReport.__dict__
    for name in ("to_json", "to_csv", "to_text"):
        assert callable(methods.get(name)), name
    assert isinstance(methods.get("from_json"), classmethod)


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _warmup_check(workload, n):
    op = workload.warmup_op(n)
    return workload.check(op, workload.run(op))


@pytest.mark.parametrize("n", [21, 41])
def test_behaviors_warmup_op_passes_its_check(workloads, n):
    assert _warmup_check(workloads.make_workload("behaviors", pogame), n) is None


@pytest.mark.parametrize("n", [3, 5])
def test_pipeline_small_warmup_op_passes_its_check(workloads, n):
    # The check holds the quantum value to 2n within 1e-6 and, at n = 3, the min-entropy to log2 3.
    assert _warmup_check(workloads.make_workload("pipeline-small", pogame), n) is None


@pytest.mark.parametrize("n", [11, 13])
def test_pipeline_large_warmup_op_passes_its_check(workloads, n):
    # The check holds the local bound to its closed form, the PNC bound to 2n - 2 and the quantum value to 2n.
    assert _warmup_check(workloads.make_workload("pipeline-large", pogame), n) is None
