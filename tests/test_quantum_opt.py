import numpy as np
import pytest

from pogame import certify
from pogame import gamecore as gc
from pogame import observables as obs
from pogame import qmat
from pogame import quantum_opt as qo
from pogame import report
from pogame import selftest as st
from pogame.qmat import SIGMA_X, SIGMA_Z, phi_plus

import oracles


def random_setup(rng, n):
    def units(count):
        v = rng.normal(size=(count, 3))
        return v / np.linalg.norm(v, axis=1)[:, None]

    alice = tuple(obs.obs_from_bloch(v) for v in units(n))
    bob = tuple(obs.obs_from_bloch(v) for v in units(n))
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    return gc.QuantumSetup(state=state / np.linalg.norm(state), alice=alice, bob=bob)


def test_sos_certificate_at_trine():
    cert = qo.sos_certificate(gc.setup_from_family(obs.trine()))
    assert np.allclose(cert.omegas, 2.0, atol=1e-9)
    assert np.max(cert.residuals) <= 1e-9
    assert abs(cert.gap) <= 1e-9
    assert cert.delta_expectation == pytest.approx(-3.0, abs=1e-9)
    assert cert.bell_value == pytest.approx(6.0, abs=1e-9)


def test_sos_certificate_at_five_setting_family():
    cert = qo.sos_certificate(gc.setup_from_family(obs.family_quartets(5)))
    assert cert.omegas.sum() == pytest.approx(10.0, abs=1e-9)
    assert abs(cert.gap) <= 1e-9
    assert np.max(cert.residuals) <= 1e-9
    assert cert.delta_expectation == pytest.approx(-5.0, abs=1e-9)


def test_random_setup_has_positive_gap():
    rng = np.random.default_rng(41)
    cert = qo.sos_certificate(random_setup(rng, 3))
    assert cert.gap > 1e-3


def test_gap_is_never_negative():
    rng = np.random.default_rng(43)
    for n in (3, 5):
        for _ in range(20):
            cert = qo.sos_certificate(random_setup(rng, n))
            assert cert.gap >= -1e-9


def test_delta_check_values():
    assert qo.delta_check(gc.setup_from_family(obs.trine())) == pytest.approx(-3.0, abs=1e-9)
    assert qo.delta_check(gc.setup_from_family(obs.family_quartets(5))) == pytest.approx(-5.0, abs=1e-9)


def test_delta_check_aligned_observables():
    setup = gc.QuantumSetup(state=phi_plus(), alice=(SIGMA_Z,) * 3, bob=(SIGMA_X,) * 3)
    assert qo.delta_check(setup) == pytest.approx(6.0, abs=1e-9)


def test_delta_identity_holds_for_random_setups():
    # delta_check raises if sum omega^2 deviates from n^2 + (n-4)<Delta>.
    rng = np.random.default_rng(47)
    for n in (3, 5, 7):
        for _ in range(10):
            qo.delta_check(random_setup(rng, n))


@pytest.mark.parametrize("n,expected", [(3, 6.0), (5, 10.0), (9, 18.0)])
def test_concavity_bound(n, expected):
    assert qo.concavity_bound(n) == pytest.approx(expected, abs=1e-12)


def test_bell_operator_matches_behavior_route():
    rng = np.random.default_rng(53)
    expr3 = gc.bell_expression(3)
    for _ in range(10):
        setup = random_setup(rng, 3)
        via_behavior = gc.bell_value(expr3, gc.behavior_from_setup(setup))
        via_operator = qo.setup_bell_value(setup)
        assert abs(via_behavior - via_operator) <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
def test_seesaw_reaches_ceiling(n):
    result = qo.seesaw(n, seed=42)
    assert result.value == pytest.approx(2.0 * n, abs=1e-6)
    assert all(c for c in result.converged)


def test_seesaw_n3_hits_from_most_restarts():
    result = qo.seesaw(3, seed=42)
    hits = sum(1 for v in result.restart_values if abs(v - 6.0) <= 1e-6)
    assert hits >= 6


def test_seesaw_monotone_traces():
    for n in (3, 5):
        result = qo.seesaw(n, seed=11, restarts=4)
        for trace in result.traces:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs >= -1e-9)


def test_seesaw_trine_fixed_point():
    init = gc.setup_from_family(obs.trine())
    result = qo.seesaw(3, seed=1, restarts=1, init=init)
    assert result.traces[0][0] == pytest.approx(6.0, abs=1e-12)
    assert result.value == pytest.approx(6.0, abs=1e-12)


def test_seesaw_n3_parity_is_exact():
    for seed in (7, 42, 101, 2024):
        result = qo.seesaw(3, seed=seed)
        assert all(result.converged), seed
        assert all(len(trace) - 1 <= 5 for trace in result.traces), seed
        assert result.parity_residual <= 1e-12, seed
        assert abs(result.value - 6.0) <= 1e-12, seed


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_found_optima_certify(n):
    # The see-saw's own optimum passes every check of the sections a report runs on it.
    for seed in (7, 42, 2024):
        setup = qo.seesaw(n, seed=seed).setup
        checks = report.sos_section(setup)[1] + report.selftest_section(setup)[1]
        checks += report.certify_section(setup, certify.ALPHA)[2]
        assert "gamma reconstruction round-trips" in [check.name for check in checks]
        assert all(check.passed for check in checks), (seed, [check for check in checks if not check.passed])
        if n == 3:  # planar: no spurious y direction in the swap frame
            assert st.build_selftest_operators(setup).y_a is None, seed


@pytest.mark.parametrize("n", [3, 5, 13])
def test_report_certifies_the_found_setup_without_a_canonical_family(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_report must certify the see-saw's setup, not a canonical family")

    monkeypatch.setattr(obs, "canonical_family", refuse)
    monkeypatch.setattr(gc, "setup_from_family", refuse)
    doc, checks = report.build_report(n)
    assert all(check.passed for check in checks), [check for check in checks if not check.passed]
    assert doc.povm["reconstruction_deviation"] <= 1e-8


@pytest.mark.parametrize("n", [5, 13, 41, 101])
def test_every_restart_reaches_the_optimum(n):
    for seed in range(5):
        result = qo.seesaw(n, seed=seed)
        assert all(result.converged), seed
        assert max(abs(v - 2 * n) for v in result.restart_values) <= 1e-9, seed
        assert max(len(trace) - 1 for trace in result.traces) <= 5, seed
        assert result.parity_residual <= 1e-12, seed


@pytest.mark.parametrize("n", [3, 5, 7, 13, 21, 101])
def test_every_restart_stops_at_the_ceiling_in_one_sweep(n):
    for seed in range(30):
        result = qo.seesaw(n, seed=seed)
        assert all(result.converged), seed
        assert all(len(trace) == 2 for trace in result.traces), seed
        assert max(abs(v - 2 * n) for v in result.restart_values) <= qo.TOL, seed


def test_start_above_the_ceiling_stops_by_the_gain_rule():
    # Off the sum-zero set the value can pass 2n: the aligned classical
    # strategy reaches n (n - 2) = 15 > 10 at n = 5.  A ceiling test of
    # value >= 2n - tol would stop the tilted start after one sweep.
    n, zero = 5, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    aligned = gc.QuantumSetup(state=zero, alice=(SIGMA_Z,) * n, bob=(SIGMA_Z,) * n)
    tilted = near_aligned_setup(np.random.default_rng(1), n, 0.05)
    tilted = gc.QuantumSetup(state=zero, alice=tilted.alice, bob=tilted.bob)
    for init, sweeps in ((aligned, 1), (tilted, 2)):
        result = qo.seesaw(n, seed=3, restarts=1, init=init)
        (trace,) = result.traces
        assert result.converged == (True,)
        assert len(trace) == sweeps + 1 and min(trace) > 2 * n + 1
        steps = np.diff(trace)
        assert np.all(steps >= -1e-12) and np.all(steps[:-1] > qo.TOL) and steps[-1] <= qo.TOL
    assert trace[0] < trace[1]


def test_seesaw_parity_holds_above_three():
    result = qo.seesaw(5, seed=42, restarts=2)
    assert result.parity_residual <= 1e-8


def test_seesaw_unconstrained_above_three_exceeds_ceiling():
    # Without the sum-zero constraint the classical aligned strategy wins.
    assert oracles.seesaw_unconstrained(5, seed=42, restarts=4) > 14.9


def test_seesaw_argument_validation():
    with pytest.raises(ValueError):
        qo.seesaw(4)
    with pytest.raises(ValueError):
        qo.seesaw(3, restarts=0)


def test_certificate_consistency_near_optimum():
    result = qo.seesaw(3, seed=42)
    cert = qo.sos_certificate(result.setup)
    assert abs(cert.bell_value - cert.omegas.sum()) <= 1e-4
    assert cert.gap >= -1e-9


def test_sos_certificate_degenerate_direction():
    # a2 + a3 = a1 makes the y=1 combination annihilate every state; the
    # residual then reports the raw defect norm and the setting is flagged.
    a1 = SIGMA_Z
    a2 = (np.sqrt(3) * SIGMA_X + SIGMA_Z) / 2
    a3 = (-np.sqrt(3) * SIGMA_X + SIGMA_Z) / 2
    setup = gc.QuantumSetup(state=phi_plus(), alice=(a1, a2, a3), bob=(a1, a2, a3))
    cert = qo.sos_certificate(setup)
    assert cert.degenerate[0] is True
    assert cert.omegas[0] <= 1e-12
    assert cert.residuals[0] <= 1e-12


def test_geometric_median_collinear_and_generic():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    mu = qo._geometric_median(pts)
    assert np.allclose(mu, [1.0, 0, 0], atol=1e-8)
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(7, 3))
    mu = qo._geometric_median(pts)
    # First-order optimality: unit pulls cancel at the median.
    pulls = (pts - mu) / np.linalg.norm(pts - mu, axis=1)[:, None]
    assert np.linalg.norm(pulls.sum(axis=0)) <= 1e-6


def test_geometric_median_batch_matches_per_slice_calls():
    rng = np.random.default_rng(61)
    collinear = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    three = [collinear, rng.normal(size=(3, 3)), collinear + 0.5, rng.normal(size=(3, 3)) * 1e-3]
    # Five points whose mean is the first one (the Vardi-Zhang branch): the
    # pull of the others is 0 and about 0.71, so the median stays there,
    # and then about 1.41, so it moves off.
    five = [
        np.array([[0.0, 0, 0], [-2, 0, 0], [-1, 0, 0], [1, 0, 0], [2, 0, 0]]),
        np.array([[0.0, 0, 0], [1, 0, 0.25], [-0.5, 2, 0.25], [-0.5, -2, 0.25], [0, 0, -0.75]]),
        np.array([[0.0, 0, 0], [3, 0, 0], [-1, 1, 0], [-1, -1, 0], [-1, 0, 0]]),
        rng.normal(size=(5, 3)),
    ]
    for slices in (three, five):
        count = len(slices[0])
        batched = qo._geometric_median(np.array(slices).reshape(2, 2, count, 3))
        assert batched.shape == (2, 2, 3)
        for got, pts in zip(batched.reshape(-1, 3), slices):
            assert np.array_equal(got, qo._geometric_median(pts))
    assert np.array_equal(qo._geometric_median(three[0]), [1.0, 0, 0])
    assert np.array_equal(qo._geometric_median(np.array(five[:2])), np.zeros((2, 3)))
    for pts in five[2:]:
        mu = qo._geometric_median(pts)
        pulls = (pts - mu) / np.linalg.norm(pts - mu, axis=1)[:, None]
        assert np.linalg.norm(pulls.sum(axis=0)) <= 1e-6


@pytest.mark.parametrize("n", [3, 5, 13])
def test_geometric_median_of_a_sum_zero_configuration_is_its_centroid(n):
    # Unit directions that sum to zero leave a unit pull at the centroid of
    # roundoff size, so the centroid test returns it, rotated and scaled alike.
    rng = np.random.default_rng(120 + n)
    rotations = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(6)]
    points = np.array(
        [scale * obs.spiral_configuration(n) @ rot.T for rot in rotations for scale in (1.0, 1e-3, 7.5, 2.0**20)]
    )
    assert np.array_equal(qo._geometric_median(points), points.mean(axis=-2))
    for pts in points:
        assert np.array_equal(qo._geometric_median(pts), pts.mean(axis=-2))


@pytest.mark.parametrize("n", [3, 5, 11, 13])
def test_seesaw_medians_never_reach_the_kuhn_search(monkeypatch, n):
    searched = []
    search = qo._median_search
    monkeypatch.setattr(qo, "_median_search", lambda every, mu: searched.append(len(every)) or search(every, mu))
    for seed in (7, 42, 2024):
        qo.seesaw(n, seed=seed)
    assert searched == []
    # The hook sees a slice that the centroid test leaves: the centroid is one of the points.
    qo._geometric_median(np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]]))
    assert searched == [1]


def near_aligned_setup(rng, n, tilt):
    """sigma_z for every setting of both parties, tilted at random, on a random state."""
    dirs = np.array([0.0, 0.0, 1.0]) + tilt * rng.normal(size=(n, 3))
    alice = tuple(oracles.bloch_observables(dirs / np.linalg.norm(dirs, axis=1)[:, None]))
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    return gc.QuantumSetup(state=state / np.linalg.norm(state), alice=alice, bob=alice)


@pytest.mark.parametrize("n", [3, 5, 7, 13])
def test_seesaw_matches_loop_oracle(n):
    rng = np.random.default_rng(90 + n)
    cases = [dict(seed=seed) for seed in (7, 42, 101, 2024, 0, 1, 2, 3, 4)]
    # Starts where Alice's constrained update loses value, or is degenerate
    # (all targets equal), so that it keeps her previous observables.
    cases += [dict(seed=8, init=near_aligned_setup(rng, n, tilt)) for tilt in (0.0, 0.05)]
    if n == 3:
        trine = gc.setup_from_family(obs.trine())
        cases += [dict(seed=5, init=trine), dict(seed=6, restarts=1, init=trine, tol=0.0)]
    for case in cases:
        case.setdefault("restarts", 4)
        tol = case.get("tol", qo.TOL)
        got, want = qo.seesaw(n, **case), oracles.seesaw_loop(n, **case)
        assert got.converged == want.converged, case
        assert [len(t) for t in got.traces] == [len(t) for t in want.traces], case
        for trace, oracle_trace, converged in zip(got.traces, want.traces, got.converged):
            assert np.max(np.abs(np.subtract(trace, oracle_trace))) <= 1e-12, case
            # Each restart stops at its first sweep that gains no more than tol or ends within tol of 2n.
            stops = [later - earlier <= tol or abs(later - 2 * n) <= tol for earlier, later in zip(trace, trace[1:])]
            assert not any(stops[:-1]) and stops[-1] == converged, case
        assert np.max(np.abs(np.subtract(got.restart_values, want.restart_values))) <= 1e-12, case
        assert abs(got.value - want.value) <= 1e-12, case
        assert got.value == max(got.restart_values)


def random_observables(rng, count):
    """Hermitian unit-square matrices U diag(+-1) U^dag, identity included."""
    out = []
    for _ in range(count):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        signs = rng.choice((-1.0, 1.0), size=2)
        out.append((u * signs) @ u.conj().T)
    return out



@pytest.mark.parametrize("n", [3, 5, 13])
def test_sweep_steps_match_the_matrix_route(n):
    # The see-saw's Pauli-coordinate steps against partial traces of the 4x4
    # state, the matrix sign by eigh and the n^2-term Bell operator.
    rng = np.random.default_rng(110 + n)
    for _ in range(5):
        alice, bob = np.array(random_observables(rng, n)), np.array(random_observables(rng, n))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho, corr = oracles.proj(psi), qmat.correlations(psi)
        a, b = qmat.pauli_coordinates(alice), qmat.pauli_coordinates(bob)
        bob_effective = gc.setting_combinations(a, axis=-2) @ corr / 2.0
        want_bob = oracles.effective_bob(rho, oracles._setting_combos(alice))
        assert np.max(np.abs(qmat.from_pauli(bob_effective) - want_bob)) <= 1e-12
        sign = qmat.from_pauli(qo._matrix_sign(bob_effective))
        assert np.max(np.abs(sign - oracles.matrix_sign_eigh(want_bob))) <= 1e-12
        alice_effective = gc.setting_combinations(b, axis=-2) @ corr.T / 2.0
        want_alice = oracles.effective_alice(rho, oracles._setting_combos(bob))
        assert np.max(np.abs(qmat.from_pauli(alice_effective) - want_alice)) <= 1e-12
        bell = qo._bell_from_pauli(a, gc.setting_combinations(b, axis=-2))
        assert np.max(np.abs(bell - oracles.bell_operator_loop(alice, bob))) <= 1e-12

@pytest.mark.parametrize("n", [3, 5, 13])
def test_bell_operator_matches_loop_oracle(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        alice, bob = random_observables(rng, n), random_observables(rng, n)
        got = qo.bell_operator(alice, bob)
        assert np.max(np.abs(got - oracles.bell_operator_loop(alice, bob))) <= 1e-12


def test_delta_operator_matches_pairwise_sum():
    rng = np.random.default_rng(79)
    alice = np.array(random_observables(rng, 7))
    pairwise = sum(alice[x] @ alice[y] + alice[y] @ alice[x] for x in range(7) for y in range(x + 1, 7))
    delta = qmat.from_pauli(qo._delta_coordinates(qmat.pauli_coordinates(alice)))
    assert np.max(np.abs(delta - pairwise)) <= 1e-12


def test_bell_operator_rejects_even_n():
    with pytest.raises(ValueError):
        qo.bell_operator([SIGMA_Z] * 4, [SIGMA_X] * 4)


def test_seesaw_rejects_infinite_tolerance_and_mismatched_init():
    with pytest.raises(ValueError, match="tol must be finite and >= 0, got inf"):
        qo.seesaw(3, tol=float("inf"))
    with pytest.raises(ValueError, match="init has 3 settings per party, expected 5"):
        qo.seesaw(5, init=gc.setup_from_family(obs.trine()))


def test_seesaw_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="tol"):
        qo.seesaw(3, tol=-1.0)
    with pytest.raises(ValueError, match="tol"):
        qo.seesaw(3, tol=float("nan"))


def _closed_form_sign(m):
    return qmat.from_pauli(qo._matrix_sign(qmat.pauli_coordinates(m)))


def test_matrix_sign_maps_a_zero_eigenvalue_to_plus_one():
    # m0 = +-|v| with |v| exact (Pythagorean quadruples): the eigenvalues are
    # m0 -+ |v| and 0, and the zero one maps to +1.
    for v in ([3.0, 0, 4], [0, 3.0, 4], [2.0, 3, 6], [1.0, 2, 2], [4.0, 4, 7], [0, 0, 0.5]):
        v = np.array(v)
        norm = np.linalg.norm(v)
        flip = oracles.bloch_observables(v / norm)
        for scale in (1.0, 2.0**-30, 3.0):
            at_plus = scale * (norm * np.eye(2) + oracles.bloch_observables(v))
            at_minus = scale * (-norm * np.eye(2) + oracles.bloch_observables(v))
            assert np.array_equal(_closed_form_sign(at_plus), np.eye(2)), v
            assert np.max(np.abs(_closed_form_sign(at_minus) - flip)) <= 1e-15, v
    # Where eigh computes the zero eigenvalue exactly (diagonal matrices), the two routes agree.
    for m in (np.diag([2.0, 0.0]), np.diag([0.0, -2.0]), np.zeros((2, 2)), 3.5 * np.eye(2), -1e-300 * np.eye(2)):
        m = m.astype(complex)
        assert np.array_equal(_closed_form_sign(m), oracles.matrix_sign_eigh(m)), m


@pytest.mark.parametrize("n", [3, 5, 13, 101])
def test_random_starts_lie_on_the_sum_zero_set(n):
    alice, bob = qo._random_starts(n, n, 16)
    assert alice.shape == bob.shape == (16, n, 4)
    assert not alice[..., 0].any() and not bob[..., 0].any()
    assert np.max(np.abs(np.linalg.norm(alice[..., 1:], axis=-1) - 1.0)) <= 1e-15
    assert np.max(np.linalg.norm(alice[..., 1:].sum(axis=1), axis=-1)) <= n * 1e-15
    assert np.max(np.abs(np.linalg.norm(bob[..., 1:], axis=-1) - 1.0)) <= 1e-15


def test_each_start_depends_only_on_its_own_stream():
    # Restart k's stream is block k of the one generator's draw.
    n, restarts = 7, 6
    alice, bob = qo._random_starts(n, 5, restarts)
    # Restart k of every run with more than k restarts, with none or all of the first k skipped.
    for k in range(restarts):
        for total in range(k + 1, restarts + 3):
            for skip in (0, k):
                got_alice, got_bob = qo._random_starts(n, 5, total, skip=skip)
                assert got_alice.shape == got_bob.shape == (total - skip, n, 4)
                assert np.array_equal(got_alice[k - skip], alice[k]) and np.array_equal(got_bob[k - skip], bob[k])
    # So the first restarts of a longer run trace the same values.
    short, long = qo.seesaw(n, seed=5, restarts=3), qo.seesaw(n, seed=5, restarts=6)
    for trace, longer in zip(short.traces, long.traces):
        assert len(trace) == len(longer) and np.max(np.abs(np.subtract(trace, longer))) <= 1e-12


def test_seeded_single_restart_draws_no_random_start(monkeypatch):
    made = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or make(*args))
    result = qo.seesaw(3, seed=1, restarts=1, init=gc.setup_from_family(obs.trine()))
    assert made == [] and len(result.traces) == 1
    alice, bob = qo._random_starts(3, 1, 1, skip=1)
    assert made == [] and alice.shape == bob.shape == (0, 3, 4)


@pytest.mark.parametrize("n", [3, 5, 13])
def test_geometric_median_runs_once_per_sweep(monkeypatch, n):
    calls = []
    median = qo._geometric_median
    monkeypatch.setattr(qo, "_geometric_median", lambda points: calls.append(points.shape) or median(points))
    qo._random_starts(n, 0, 8)
    assert calls == []
    for seed in (7, 42, 2024):
        calls.clear()
        result = qo.seesaw(n, seed=seed)
        assert len(calls) == max(len(trace) for trace in result.traces) - 1, seed
