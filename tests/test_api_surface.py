"""The public names of ``pogame``: any change to an export must change this file."""

import pogame

EXPORTS = [
    "__version__",
    "Behavior",
    "BellExpression",
    "CertificationReport",
    "GameSpec",
    "ObservableFamily",
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
    "family_five",
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


def test_exports_are_pinned():
    assert pogame.__all__ == EXPORTS


def test_every_export_resolves():
    for name in pogame.__all__:
        assert getattr(pogame, name) is not None, name
