"""The public names of ``pogame``: any change to an export must change this file."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pogame

PACKAGE = Path(pogame.__file__).parent
MODULES = sorted(f"pogame.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__")

EXPORTS = [
    "__version__",
    "Behavior",
    "BellExpression",
    "CertificationReport",
    "GameSpec",
    "PovmSet",
    "QuantumSetup",
    "behavior_from_setup",
    "bell_expression",
    "bell_value",
    "build_report",
    "build_selftest_operators",
    "canonical_family",
    "canonical_povm",
    "check_operational_parity",
    "concavity_bound",
    "delta_check",
    "extremality_check",
    "family_n",
    "family_quartets",
    "local_bound",
    "pnc_bound",
    "randomness_report",
    "run_isometry",
    "seesaw",
    "setup_from_family",
    "shifted_bell_value",
    "sos_certificate",
    "steered_states",
    "success_probability",
    "trine",
    "verify_relations",
]


# Parameter names of every exported callable (a class lists its constructor's).
PARAMETERS = {
    "Behavior": "n, table",
    "BellExpression": "n",
    "CertificationReport": "n, local_bound, pnc_bound, quantum_value, success_probabilities, bounds, sos, "
    "optimization, selftest, povm, randomness, provenance",
    "GameSpec": "n",
    "PovmSet": "elements",
    "QuantumSetup": "state, alice, bob",
    "behavior_from_setup": "setup",
    "bell_expression": "n",
    "bell_value": "expr, beh",
    "build_report": "n, seed, restarts, tol, alpha",
    "build_selftest_operators": "setup",
    "canonical_family": "n",
    "canonical_povm": "fam",
    "check_operational_parity": "states",
    "concavity_bound": "n",
    "delta_check": "setup",
    "extremality_check": "povm",
    "family_n": "n, nu, beta",
    "family_quartets": "n, nu, beta",
    "local_bound": "n",
    "pnc_bound": "n",
    "randomness_report": "setup, povm",
    "run_isometry": "setup, target",
    "seesaw": "n, seed, tol, restarts, init",
    "setup_from_family": "fam",
    "shifted_bell_value": "setup, povm, alpha",
    "sos_certificate": "setup",
    "steered_states": "setup",
    "success_probability": "expr, beh",
    "trine": "",
    "verify_relations": "ops, state",
}


def test_exports_are_pinned():
    assert pogame.__all__ == EXPORTS


def test_every_export_resolves():
    for name in pogame.__all__:
        assert getattr(pogame, name) is not None, name


def test_parameters_of_every_export_are_pinned():
    callables = [name for name in pogame.__all__ if callable(getattr(pogame, name))]
    assert list(PARAMETERS) == callables
    for name in callables:
        params = ", ".join(inspect.signature(getattr(pogame, name)).parameters)
        assert params == PARAMETERS[name], name


def run_fresh(source):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["pogame", *MODULES])
def test_each_module_imports_alone_in_a_fresh_interpreter(module):
    # In this process every module is already loaded, which would hide an import cycle.
    run_fresh(f"import {module}")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_under_a_stub_package(module):
    # ``import pogame.<module>`` runs pogame/__init__.py first, which loads the
    # submodules in its own order.  A stub package with only __path__ and
    # __version__ lets the named module load first, so its own imports decide
    # the order, and a cycle that __init__'s order hides shows.
    run_fresh(
        "import sys, types\n"
        "stub = types.ModuleType('pogame')\n"
        f"stub.__path__ = [{str(PACKAGE)!r}]\n"
        f"stub.__version__ = {pogame.__version__!r}\n"
        "sys.modules['pogame'] = stub\n"
        f"import {module}\n"
        "assert sys.modules['pogame'] is stub and not hasattr(stub, '__all__')\n"
    )
