import numpy as np
import pytest

import oracles
from pogame import gamecore as gc
from pogame import observables as obs
from pogame import report
from pogame import selftest as st
from pogame.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from pogame.report import _TARGETS_3, _TARGETS_5


def trine_setup():
    return gc.setup_from_family(obs.trine())


def five_setup():
    return gc.setup_from_family(obs.family_five())


def random_product_unitary(rng):
    def haar_2x2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    return haar_2x2(), haar_2x2()


def conjugated_setup(setup, ua, ub):
    state = oracles.tensor(ua, ub) @ setup.state
    alice = tuple(ua @ a @ ua.conj().T for a in setup.alice)
    bob = tuple(ub @ b @ ub.conj().T for b in setup.bob)
    return gc.QuantumSetup(state=state, alice=alice, bob=bob)


def test_operators_trine():
    ops = st.build_selftest_operators(trine_setup())
    assert np.allclose(ops.x_a, -SIGMA_X, atol=1e-12)
    assert np.allclose(ops.z_a, SIGMA_Z, atol=1e-12)
    assert np.allclose(ops.x_a @ ops.x_a, I2, atol=1e-12)
    assert np.allclose(ops.z_a @ ops.x_a + ops.x_a @ ops.z_a, 0, atol=1e-12)
    assert ops.norms["x_a"] == pytest.approx(np.sqrt(3), abs=1e-12)
    assert ops.norms["x_b"] == pytest.approx(np.sqrt(3), abs=1e-12)


def test_operators_five_setting():
    ops = st.build_selftest_operators(five_setup())
    assert np.allclose(ops.x_a, SIGMA_X, atol=1e-12)
    assert np.allclose(ops.y_a, SIGMA_Y, atol=1e-12)
    assert np.allclose(ops.x_b, SIGMA_X, atol=1e-12)
    assert np.allclose(ops.y_b, SIGMA_Y, atol=1e-12)
    psi = five_setup().state
    assert np.allclose(oracles.tensor(ops.y_a, I2) @ psi, -oracles.tensor(I2, ops.y_b) @ psi, atol=1e-12)


def test_operators_quartet_families_above_five():
    for n in (7, 9):
        setup = gc.setup_from_family(obs.family_quartets(n))
        ops = st.build_selftest_operators(setup)
        for m in (ops.x_a, ops.y_a, ops.x_b, ops.y_b):
            assert np.allclose(m @ m, I2, atol=1e-10)
        residuals = st.verify_relations(ops, setup.state)
        assert max(residuals.values()) <= 1e-10


def test_operators_reject_vanishing_norm():
    # Equal second and third observables make the transverse combination zero.
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    setup = gc.QuantumSetup(
        state=psi,
        alice=(SIGMA_Z, SIGMA_X, SIGMA_X),
        bob=(-SIGMA_Z, -SIGMA_X, -SIGMA_X),
    )
    with pytest.raises(ValueError):
        st.build_selftest_operators(setup)


def test_mirror_family_does_not_support_the_two_direction_test():
    # The mirrored-pair family collapses the x and y combinations onto one
    # direction, so the operators build but the product relations fail.
    setup = gc.setup_from_family(obs.family_n(7))
    ops = st.build_selftest_operators(setup)
    assert np.allclose(ops.y_a, -ops.x_a, atol=1e-12)
    residuals = st.verify_relations(ops, setup.state)
    assert residuals["yx_anticommute_a"] > 1.0


def test_relations_at_trine_optimum():
    setup = trine_setup()
    residuals = st.verify_relations(st.build_selftest_operators(setup), setup.state)
    assert len(residuals) == 13  # 3 diagonal + 4 operator + 6 pairwise
    assert max(residuals.values()) <= 1e-9


def test_relations_at_five_optimum():
    setup = five_setup()
    residuals = st.verify_relations(st.build_selftest_operators(setup), setup.state)
    assert max(residuals.values()) <= 1e-9


def test_relations_detect_perturbed_state():
    base = trine_setup()
    setup = gc.QuantumSetup(state=st.perturbed_state(0.01), alice=base.alice, bob=base.bob)
    residuals = st.verify_relations(st.build_selftest_operators(setup), setup.state)
    assert max(residuals.values()) > 1e-3


def test_circuit_unitarity_and_norm_preservation():
    # The staged circuit against the dense gate-by-gate unitary, on canonical,
    # perturbed and gauge-rotated setups, for the state and every report target.
    rng = np.random.default_rng(29)
    cases = []
    for base in (trine_setup(), five_setup()):
        perturbed = gc.QuantumSetup(state=st.perturbed_state(0.05), alice=base.alice, bob=base.bob)
        cases += [base, perturbed]
    cases += [conjugated_setup(trine_setup(), *random_product_unitary(rng)) for _ in range(3)]
    for setup in cases:
        gates = oracles.swap_circuit_gates(st.build_selftest_operators(setup))
        dim = gates[0].shape[0]
        for gate in gates:
            assert np.max(np.abs(gate.conj().T @ gate - np.eye(dim))) <= 1e-12
        for target in ("state",) + (_TARGETS_3 if setup.n == 3 else _TARGETS_5):
            output = st.run_isometry(setup, target).output
            assert np.max(np.abs(output - oracles.swap_circuit_output(setup, target))) <= 1e-12, target
            assert np.linalg.norm(output) == pytest.approx(1.0, abs=1e-12), target


def test_expected_output_matches_dense_junk_oracle():
    # Off the optimum, where Bob's i Y X acts on chi differently from Alice's,
    # the predicted output uses Alice's branches only: a failed Bob relation
    # must lower the fidelity rather than enter the prediction.
    rng = np.random.default_rng(31)
    five = five_setup()
    b = five.bob
    flipped_y = gc.QuantumSetup(state=five.state, alice=five.alice, bob=(b[0], b[3], b[4], b[1], b[2]))
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    random_state = gc.QuantumSetup(state=vec / np.linalg.norm(vec), alice=five.alice, bob=five.bob)
    gauged = conjugated_setup(trine_setup(), *random_product_unitary(rng))
    cases = [five, flipped_y, random_state, trine_setup(), gauged]
    for setup in cases:
        for target in ("state",) + (_TARGETS_3 if setup.n == 3 else _TARGETS_5):
            result = st.run_isometry(setup, target)
            expected, junk = oracles.swap_circuit_expected(setup, target)
            assert np.max(np.abs(result.expected - expected)) <= 1e-12, target
            assert result.fidelity == pytest.approx(abs(np.vdot(expected, result.output)) ** 2, abs=1e-12)
            if result.factorized:
                overlap = abs(np.vdot(result.junk, junk)) ** 2
                fid = overlap / (np.linalg.norm(junk) * np.linalg.norm(result.junk)) ** 2
                assert result.junk_fidelity == pytest.approx(fid, abs=1e-12), target
    assert st.build_selftest_operators(flipped_y).y_b == pytest.approx(-st.build_selftest_operators(five).y_b)
    assert st.run_isometry(flipped_y, "state").fidelity < 0.9


def test_circuit_register_dimension():
    assert 2 ** st.build_circuit(st.build_selftest_operators(trine_setup())).nregs == 16
    assert 2 ** st.build_circuit(st.build_selftest_operators(five_setup())).nregs == 64


def test_circuit_rejects_other_sizes():
    setup = gc.setup_from_family(obs.family_quartets(7))
    ops = st.build_selftest_operators(setup)
    with pytest.raises(ValueError):
        st.build_circuit(ops)


def test_state_extraction_trine():
    result = st.run_isometry(trine_setup(), "state")
    assert result.fidelity >= 1 - 1e-10
    assert result.factorized
    assert result.junk_fidelity >= 1 - 1e-10
    # Junk for the canonical optimum is (1 + Z_A)|psi>/sqrt(2).
    chi = (np.eye(4) + oracles.tensor(SIGMA_Z, I2)) @ trine_setup().state / np.sqrt(2)
    overlap = abs(np.vdot(chi, result.junk)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_measurement_extractions_trine():
    setup = trine_setup()
    targets = [f"A{x}" for x in (1, 2, 3)]
    targets += [f"B{y}" for y in (1, 2, 3)]
    targets += [f"A{x}B{y}" for x in (1, 2, 3) for y in (1, 2, 3)]
    for target in targets:
        result = st.run_isometry(setup, target)
        assert result.max_entry_error <= 1e-9, target
        assert result.fidelity >= 1 - 1e-10, target


def test_x_extraction_action_is_sigma_x():
    result = st.run_isometry(trine_setup(), "XA")
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    expected = oracles.tensor(SIGMA_X, I2) @ phi
    overlap = abs(np.vdot(expected, result.extracted)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_five_setting_extractions():
    setup = five_setup()
    for target in ("state", "ZA", "XA", "ZB", "XB"):
        result = st.run_isometry(setup, target)
        assert result.max_entry_error <= 1e-9, target


def test_five_setting_y_extraction_dressed_junk():
    setup = five_setup()
    for target in ("YA", "YB"):
        result = st.run_isometry(setup, target)
        assert result.fidelity >= 1 - 1e-10
        assert result.junk_fidelity >= 1 - 1e-10
        assert result.max_entry_error <= 1e-9


def test_perturbation_degrades_fidelity_monotonically():
    base = trine_setup()
    deltas = np.linspace(0.0, 0.1, 6)
    fidelities = []
    for d in deltas:
        setup = gc.QuantumSetup(state=st.perturbed_state(d), alice=base.alice, bob=base.bob)
        fidelities.append(st.run_isometry(setup, "state").fidelity)
    assert fidelities[0] >= 1 - 1e-10
    assert all(f1 >= f2 - 1e-12 for f1, f2 in zip(fidelities, fidelities[1:]))
    assert fidelities[-1] < 1 - 1e-4


def test_global_phase_invariance():
    base = trine_setup()
    phased = gc.QuantumSetup(
        state=np.exp(1j * 0.7) * base.state, alice=base.alice, bob=base.bob
    )
    r1 = st.run_isometry(base, "state")
    r2 = st.run_isometry(phased, "state")
    assert r2.fidelity == pytest.approx(r1.fidelity, abs=1e-12)
    assert r2.max_entry_error <= 1e-9


def test_gauge_invariance_under_local_unitaries():
    rng = np.random.default_rng(61)
    base = trine_setup()
    for _ in range(3):
        ua, ub = random_product_unitary(rng)
        rotated = conjugated_setup(base, ua, ub)
        residuals = st.verify_relations(st.build_selftest_operators(rotated), rotated.state)
        assert max(residuals.values()) <= 1e-9
        result = st.run_isometry(rotated, "state")
        assert result.fidelity >= 1 - 1e-9
        for target in ("A1", "B2", "A2B3"):
            assert st.run_isometry(rotated, target).fidelity >= 1 - 1e-9


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        st.run_isometry(trine_setup(), "C1")
    with pytest.raises(ValueError):
        st.run_isometry(trine_setup(), "A4")
    with pytest.raises(ValueError):
        st.run_isometry(trine_setup(), "YA")  # needs the five-setting operators


def _report_targets(n):
    return ("state",) + (_TARGETS_3 if n == 3 else _TARGETS_5)


@pytest.mark.parametrize("delta", [0.0, 0.05], ids=["canonical", "perturbed"])
@pytest.mark.parametrize("n", [3, 5])
def test_stacked_runner_matches_loop_oracle(n, delta):
    base = gc.setup_from_family(obs.canonical_family(n))
    state = st.perturbed_state(delta) if delta else base.state
    oracles.assert_stacked_selftest_matches(gc.QuantumSetup(state=state, alice=base.alice, bob=base.bob), _report_targets(n))


@pytest.mark.parametrize(
    "target, message",
    [
        ("C1", "unrecognized isometry target: C1"),
        ("A4", "target index out of range: A4"),
        ("YA", "target YA requires the five-setting operators"),
    ],
)
def test_stacked_runner_rejects_bad_targets_as_the_loop_did(target, message):
    setup = trine_setup()
    ops = st.build_selftest_operators(setup)
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracles.run_targets_loop(setup, (target,))
    with pytest.raises(ValueError, match=f"^{message}$"):
        st.run_isometry(setup, target)
    # A bad target among good ones fails the whole stack.
    with pytest.raises(ValueError, match=f"^{message}$"):
        st.run_targets(setup, ops, st.build_circuit(ops), ("state", "A1", target, "B2"))


def test_selftest_section_runs_every_target_in_one_stack(monkeypatch):
    calls = []
    run_targets = st.run_targets
    monkeypatch.setattr(st, "run_targets", lambda *args: calls.append(args[3]) or run_targets(*args))
    monkeypatch.setattr(st, "run_isometry", None)  # the section must not run targets one by one
    for n in (3, 5):
        section, _ = report.selftest_section(gc.setup_from_family(obs.canonical_family(n)))
        assert calls[-1] == _report_targets(n)
        assert set(section["extraction_fidelities"]) == set(_report_targets(n)[1:])
    assert len(calls) == 2
