import numpy as np
import pytest

import oracles
from pogame import gamecore as gc
from pogame import observables as obs
from pogame import quantum_opt as qo
from pogame import report
from pogame import selftest as st
from pogame.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, phi_plus


def trine_setup():
    return gc.setup_from_family(obs.trine())


def five_setup():
    return gc.setup_from_family(obs.family_quartets(5))


def _report_targets(setup):
    return st.all_targets(st.build_selftest_operators(setup))


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
    # X is A_2 minus its A_1 part, sqrt(3)/2 sigma_x, and the trine is planar: no y direction.
    ops = st.build_selftest_operators(trine_setup())
    assert np.allclose(ops.x_a, SIGMA_X, atol=1e-12)
    assert np.allclose(ops.z_a, SIGMA_Z, atol=1e-12)
    assert np.allclose(ops.x_b, SIGMA_X, atol=1e-12)
    assert np.allclose(ops.z_b, SIGMA_Z, atol=1e-12)
    assert np.allclose(ops.x_a @ ops.x_a, I2, atol=1e-12)
    assert np.allclose(ops.z_a @ ops.x_a + ops.x_a @ ops.z_a, 0, atol=1e-12)
    assert ops.y_a is None and ops.y_b is None
    assert ops.norms == pytest.approx({"x_a": np.sqrt(3) / 2, "x_b": np.sqrt(3) / 2}, abs=1e-12)


def test_operators_five_setting():
    # X is A_2 minus its A_1 part, (sx - sy)/sqrt(2); Y is the remainder of A_3,
    # -(sx + sy)/sqrt(2).  Bob's are the transposes: B_y = -A_y^T.
    ops = st.build_selftest_operators(five_setup())
    assert np.allclose(ops.z_a, SIGMA_Z, atol=1e-12)
    assert np.allclose(ops.x_a, (SIGMA_X - SIGMA_Y) / np.sqrt(2), atol=1e-12)
    assert np.allclose(ops.y_a, -(SIGMA_X + SIGMA_Y) / np.sqrt(2), atol=1e-12)
    assert np.allclose(ops.z_b, SIGMA_Z, atol=1e-12)
    assert np.allclose(ops.x_b, ops.x_a.T, atol=1e-12)
    assert np.allclose(ops.y_b, -ops.y_a.T, atol=1e-12)
    assert ops.norms == pytest.approx(dict.fromkeys(("x_a", "x_b", "y_a", "y_b"), np.sqrt(15) / 4), abs=1e-12)
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
    # Observables all along A_1 leave no part orthogonal to it for X.
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    setup = gc.QuantumSetup(state=psi, alice=(SIGMA_Z, SIGMA_Z, -SIGMA_Z), bob=(-SIGMA_Z, -SIGMA_Z, SIGMA_Z))
    with pytest.raises(gc.CertificationError, match="^swap operator has vanishing norm on the state$"):
        st.build_selftest_operators(setup)
    # Equal second and third observables no longer matter: X is the first orthogonal part.
    ops = st.build_selftest_operators(
        gc.QuantumSetup(state=psi, alice=(SIGMA_Z, SIGMA_X, SIGMA_X), bob=(-SIGMA_Z, -SIGMA_X, -SIGMA_X))
    )
    assert np.allclose(ops.x_a, SIGMA_X, atol=1e-12) and ops.y_a is None


def test_operators_reject_settings_that_span_no_frame():
    # With an identity setting taken as X, X = (I - c Z)/|.psi| squares to a
    # multiple of I only when c = <Z (x) I> vanishes; off phi+ it does not.
    setup = gc.QuantumSetup(state=st.perturbed_state(0.3), alice=(SIGMA_Z, I2, -I2), bob=(-SIGMA_Z, -I2, I2))
    with pytest.raises(gc.CertificationError, match="^normalized swap operator does not square to the identity$"):
        st.build_selftest_operators(setup)


def test_mirror_family_does_not_support_the_two_direction_test():
    # The mirrored-pair family is planar: its frame has no y direction, so
    # it self-tests with the one-stage circuit on the state and the four
    # planar frame targets, and a y target is rejected.
    setup = gc.setup_from_family(obs.family_n(7))
    ops = st.build_selftest_operators(setup)
    assert ops.y_a is None and ops.y_b is None
    assert np.allclose(ops.x_a, (SIGMA_X - SIGMA_Y) / np.sqrt(2), atol=1e-12)
    assert len(st.build_circuit(ops).stages) == 1
    assert max(st.verify_relations(ops, setup.state).values()) <= 1e-12
    runs = st.run_targets(setup, ops, st.build_circuit(ops), _report_targets(setup))
    assert [run.target for run in runs] == ["state", "ZA", "XA", "ZB", "XB"]
    assert min(run.fidelity for run in runs) >= 1 - 1e-12
    assert max(run.max_entry_error for run in runs) <= 1e-12
    with pytest.raises(ValueError, match="^target YA requires a y direction in the swap frame$"):
        st.run_isometry(setup, "YA")


def test_relations_at_trine_optimum():
    setup = trine_setup()
    residuals = st.verify_relations(st.build_selftest_operators(setup), setup.state)
    assert list(residuals) == [
        "diag_anticorrelation_1",
        "diag_anticorrelation_2",
        "diag_anticorrelation_3",
        "z_equal",
        "x_equal",
        "zx_anticommute_a",
        "zx_anticommute_b",
        "sum_zero",
    ]
    assert max(residuals.values()) <= 1e-9
    # sum_zero with the diagonal relations implies each pairwise sum relation (A_x (x) B_y + B_z) psi = psi.
    a, b = setup.alice, setup.bob
    for x, y, z in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        for left, right in ((a[x], b[y] + b[z]), (a[y] + a[z], b[x])):
            assert np.linalg.norm(oracles.tensor(left, right) @ setup.state - setup.state) <= 1e-9


def test_sum_zero_relation_catches_observables_that_do_not_sum_to_zero():
    # Perfect diagonal anticorrelations, but A_1 + A_2 + A_3 = Z + 2X.
    setup = gc.QuantumSetup(state=phi_plus(), alice=(SIGMA_Z, SIGMA_X, SIGMA_X), bob=(-SIGMA_Z, -SIGMA_X, -SIGMA_X))
    residuals = st.verify_relations(st.build_selftest_operators(setup), setup.state)
    assert residuals.pop("sum_zero") == pytest.approx(np.sqrt(5), abs=1e-12)
    assert max(residuals.values()) <= 1e-12


def test_span_check_reads_bobs_frame_too():
    # Bob at 90 degrees where Alice's trine is at 120: Bob's frame, built
    # with Alice's Gram coefficients, is not orthogonal, so his observables
    # leave a leftover while Alice's lie in her frame.
    setup = gc.QuantumSetup(state=phi_plus(), alice=obs.trine().alice, bob=(-SIGMA_Z, -SIGMA_X, SIGMA_X))
    _, leftover = st.frame_coordinates(st.build_selftest_operators(setup))
    assert leftover[0].max() <= 1e-15
    assert leftover[1] == pytest.approx([np.sqrt(0.4)] * 3, abs=1e-12)
    section, checks = report.selftest_section(setup)
    assert section["frame_leftover_max"] == leftover.max()
    assert not next(check for check in checks if check.name == "observables lie in the swap frame").passed


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
    # mirrored-pair, perturbed and gauge-rotated setups, for the state and every report target.
    rng = np.random.default_rng(29)
    cases = []
    families = [obs.canonical_family(n) for n in (3, 5, 7, 9, 11, 13)] + [obs.family_n(7)]
    for base in map(gc.setup_from_family, families):
        perturbed = gc.QuantumSetup(state=st.perturbed_state(0.05), alice=base.alice, bob=base.bob)
        cases += [base, perturbed]
    cases += [conjugated_setup(trine_setup(), *random_product_unitary(rng)) for _ in range(3)]
    for setup in cases:
        gates = oracles.swap_circuit_gates(st.build_selftest_operators(setup))
        dim = gates[0].shape[0]
        for gate in gates:
            assert np.max(np.abs(gate.conj().T @ gate - np.eye(dim))) <= 1e-12
        for target in _report_targets(setup):
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
        for target in _report_targets(setup):
            result = st.run_isometry(setup, target)
            expected, junk = oracles.swap_circuit_expected(setup, target)
            assert np.max(np.abs(result.expected - expected)) <= 1e-12, target
            assert result.fidelity == pytest.approx(abs(np.vdot(expected, result.output)) ** 2, abs=1e-12)
            if result.factorized:
                overlap = abs(np.vdot(result.junk, junk)) ** 2
                fid = overlap / (np.linalg.norm(junk) * np.linalg.norm(result.junk)) ** 2
                assert result.junk_fidelity == pytest.approx(fid, abs=1e-12), target
    # Swapping Bob's out-of-plane pairs conjugates his swap frame, which the state does not follow.
    canonical, flipped = st.build_selftest_operators(five), st.build_selftest_operators(flipped_y)
    for name in ("x_b", "y_b"):
        assert getattr(flipped, name) == pytest.approx(getattr(canonical, name).conj(), abs=1e-12)
        assert np.max(np.abs(getattr(flipped, name) - getattr(canonical, name))) > 1.0
    assert st.run_isometry(flipped_y, "state").fidelity < 0.9


def test_circuit_register_dimension():
    assert 2 ** st.build_circuit(st.build_selftest_operators(trine_setup())).nregs == 16
    assert 2 ** st.build_circuit(st.build_selftest_operators(five_setup())).nregs == 64


def test_circuit_stages_follow_the_frame_not_n():
    # Quartet families have a y direction and get both stages; the planar
    # mirrored-pair family of the same n gets the (Z, X) stage alone.
    for n in (7, 9, 11, 13, 101):
        for family, stages in ((obs.family_quartets(n), 2), (obs.family_n(n), 1)):
            circuit = st.build_circuit(st.build_selftest_operators(gc.setup_from_family(family)))
            assert (len(circuit.stages), circuit.nregs) == (stages, 2 + 2 * stages)


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
    # The frame targets; the raw observables are covered by their frame coordinates.
    setup = trine_setup()
    for target in ("ZA", "XA", "ZB", "XB"):
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
        for target in ("ZA", "XA", "ZB", "XB"):
            assert st.run_isometry(rotated, target).fidelity >= 1 - 1e-9
        _, checks = report.selftest_section(rotated)
        assert all(check.passed for check in checks), checks


@pytest.mark.parametrize(
    "family",
    [obs.trine(), obs.family_n(7), obs.family_quartets(5), obs.family_quartets(13)],
    ids=["trine", "mirror7", "quartets5", "quartets13"],
)
def test_raw_observables_are_covered_by_frame_coordinates(family):
    # The circuit is linear, so the dense output of a raw target A<x>, B<y> or
    # A<x>B<y> is the coordinate-weighted sum of the frame targets' dense
    # outputs (the products F_A G_B of frame operators for A<x>B<y>), at the
    # optimum and under random local gauges.
    rng = np.random.default_rng(family.n)
    base = gc.setup_from_family(family)
    for setup in [base] + [conjugated_setup(base, *random_product_unitary(rng)) for _ in range(3)]:
        ops = st.build_selftest_operators(setup)
        coords, leftover = st.frame_coordinates(ops)
        frames = ((ops.z_a, ops.x_a, ops.y_a), (ops.z_b, ops.x_b, ops.y_b))
        for party, observables in enumerate((setup.alice, setup.bob)):
            for x, op in enumerate(observables):
                single, rest = oracles._frame_coefficients_single(op, *frames[party])
                assert np.max(np.abs(coords[party, x] - single)) <= 1e-14
                assert abs(leftover[party, x] - rest) <= 1e-14
        assert leftover.max() <= 1e-12

        names, settings = ("ZX" if ops.y_a is None else "ZXY"), range(1, family.n + 1)
        raw_a = oracles.swap_circuit_outputs(setup, [f"A{x}" for x in settings])
        raw_b = oracles.swap_circuit_outputs(setup, [f"B{y}" for y in settings])
        raw_ab = oracles.swap_circuit_outputs(setup, [f"A{x}B{y}" for x in settings for y in settings])
        frame_a = oracles.swap_circuit_outputs(setup, [f"{f}A" for f in names])
        frame_b = oracles.swap_circuit_outputs(setup, [f"{g}B" for g in names])
        frame_ab = oracles.swap_circuit_outputs(setup, [f"{f}A{g}B" for f in names for g in names])
        a, b = coords[0, :, : len(names)], coords[1, :, : len(names)]
        assert np.max(np.abs(raw_a - a @ frame_a)) <= 1e-12
        assert np.max(np.abs(raw_b - b @ frame_b)) <= 1e-12
        predicted_ab = np.einsum("xf,yg,fgd->xyd", a, b, frame_ab.reshape(len(names), len(names), -1))
        assert np.max(np.abs(raw_ab - predicted_ab.reshape(raw_ab.shape))) <= 1e-12


@pytest.mark.parametrize("at", [2, 1, 0], ids=["ZXI", "ZIX", "IZX"])
def test_identity_setting_stays_in_the_frame_leftover(at):
    # An identity setting is not a Pauli direction.  As the third setting its
    # remainder after the Z and X parts is I, whose traceless part vanishes,
    # so the frame is planar.  As the first or second it becomes the frame's
    # Z or X axis, which covers only its traceless part, zero.  Either way I
    # is left over on both sides, and its coordinates miss the -1 correlator.
    alice = (SIGMA_Z, SIGMA_X)[:at] + (I2,) + (SIGMA_Z, SIGMA_X)[at:]
    setup = gc.QuantumSetup(state=phi_plus(), alice=alice, bob=tuple(-a for a in alice))
    ops = st.build_selftest_operators(setup)
    assert (ops.y_a is None and ops.y_b is None) == (at == 2)
    _, leftover = st.frame_coordinates(ops)
    assert np.max(np.delete(leftover, at, axis=1)) <= 1e-12
    assert np.allclose(leftover[:, at], np.sqrt(2.0), atol=1e-12)
    _, checks = report.selftest_section(setup)
    by_name = {check.name: check for check in checks}
    frame = by_name["observables lie in the swap frame"]
    assert not frame.passed and frame.value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    gram = by_name["self-tested Gram matches the correlators"]
    assert not gram.passed and gram.value == pytest.approx(1.0, abs=1e-12)


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        st.run_isometry(trine_setup(), "C1")
    for raw in ("A1", "B2", "A1B2"):  # raw observables are covered by coordinates, not run
        with pytest.raises(ValueError):
            st.run_isometry(trine_setup(), raw)
    with pytest.raises(ValueError):
        st.run_isometry(trine_setup(), "YA")  # the trine's frame has no y direction


@pytest.mark.parametrize("delta", [0.0, 0.05], ids=["canonical", "perturbed"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_stacked_runner_matches_loop_oracle(n, delta):
    for family in (obs.canonical_family(n), obs.family_n(n)):
        state = st.perturbed_state(delta) if delta else phi_plus()
        setup = gc.QuantumSetup(state=state, alice=family.alice, bob=family.bob)
        oracles.assert_stacked_selftest_matches(setup, _report_targets(setup))


@pytest.mark.parametrize(
    "target, message",
    [
        ("C1", "unrecognized isometry target: C1"),
        ("A1", "unrecognized isometry target: A1"),
        ("YA", "target YA requires a y direction in the swap frame"),
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
        st.run_targets(setup, ops, st.build_circuit(ops), ("state", "ZA", target, "XB"))


def test_selftest_section_runs_every_target_in_one_stack(monkeypatch):
    calls = []
    run_targets = st.run_targets
    monkeypatch.setattr(st, "run_targets", lambda *args: calls.append(args[3]) or run_targets(*args))
    monkeypatch.setattr(st, "run_isometry", None)  # the section must not run targets one by one
    planar = ("state", "ZA", "XA", "ZB", "XB")
    cases = [(obs.trine(), planar), (obs.family_quartets(5), planar[:3] + ("YA",) + planar[3:] + ("YB",))]
    cases.append((obs.family_n(201), planar))  # O(n): no target per observable
    for family, targets in cases:
        setup = gc.setup_from_family(family)
        section, checks = report.selftest_section(setup)
        assert calls[-1] == _report_targets(setup) == targets
        assert set(section["extraction_fidelities"]) == set(targets[1:])
        assert len(section["frame_coordinates"]) == family.n
        assert all(check.passed for check in checks), checks
    assert len(calls) == 3


def _mixture_setup(kind, n):
    if kind == "canonical":
        return gc.setup_from_family(obs.canonical_family(n))
    return qo.seesaw(n, seed=42).setup


@pytest.mark.parametrize(
    "kind, n", [("canonical", 5), ("canonical", 7), ("canonical", 13), ("found", 5), ("found", 7)]
)
def test_a_non_rigid_configuration_is_a_mixture_of_two_that_reach_2n(kind, n):
    # The correlators alone do not fix Alice's geometry here: two different
    # sum-zero unit configurations, each reaching 2n with Bob anti-aligned,
    # average to the same Gram and the same correlators.
    setup = _mixture_setup(kind, n)
    alice, bob, corr = setup.pauli_form
    gram, correlators = alice[:, 1:] @ alice[:, 1:].T, alice @ corr @ bob.T
    grams, tables = [], []
    for config in oracles.two_branch_mixture(alice[:, 1:]):
        assert np.max(np.abs(np.linalg.norm(config, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(config.sum(axis=0))) <= 1e-12
        branch_alice = tuple(obs.obs_from_bloch(v) for v in config)
        branch = gc.QuantumSetup(state=phi_plus(), alice=branch_alice, bob=tuple(-a.T for a in branch_alice))
        assert abs(qo.setup_bell_value(branch) - 2 * n) <= 1e-12
        a, b, t = branch.pauli_form
        grams.append(config @ config.T)
        tables.append(a @ t @ b.T)
        # Each branch's Gram sits 0.18-0.50 (largest entry) from G on these setups.
        assert np.max(np.abs(grams[-1] - gram)) >= 0.1
    assert np.max(np.abs((grams[0] + grams[1]) / 2 - gram)) <= 1e-12
    assert np.max(np.abs((tables[0] + tables[1]) / 2 - correlators)) <= 1e-12


@pytest.mark.parametrize("kind, n", [("canonical", 3), ("found", 13)])
def test_a_rigid_configuration_has_no_second_branch(kind, n):
    alice = _mixture_setup(kind, n).pauli_form[0]
    with pytest.raises(ValueError, match="configuration is rigid"):
        oracles.two_branch_mixture(alice[:, 1:])
