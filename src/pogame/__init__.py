"""Parity-oblivious communication game toolkit.

Implements the n-input game with one-per-setting dichotomic measurements:
classical and preparation-non-contextual bounds, the see-saw quantum
optimum with its certificate, swap-circuit self-testing of the optimal
state and measurements, and certification of the anti-aligned three-outcome
POVM together with its local randomness.
"""

__version__ = "0.1.0"

from .bounds import local_bound, pnc_bound
from .certify import PovmSet, canonical_povm, extremality_check, randomness_report, shifted_bell_value
from .gamecore import (
    Behavior,
    BellExpression,
    GameSpec,
    QuantumSetup,
    behavior_from_setup,
    bell_expression,
    bell_value,
    check_operational_parity,
    setup_from_family,
    steered_states,
    success_probability,
)
from .observables import canonical_family, family_n, family_quartets, trine
from .quantum_opt import concavity_bound, delta_check, seesaw, sos_certificate
from .report import CertificationReport, build_report
from .selftest import build_selftest_operators, run_isometry, verify_relations

__all__ = [
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
