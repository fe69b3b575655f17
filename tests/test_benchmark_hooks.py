"""The benchmark's traced run replaces pogame functions by name; keep those names resolvable."""

import importlib
import importlib.util
from pathlib import Path

from pogame.report import CertificationReport

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load_tracing()
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
