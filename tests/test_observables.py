import numpy as np
import pytest

import oracles
from oracles import operator_norm
from pogame import bounds
from pogame import gamecore as gc
from pogame import observables as obs
from pogame import quantum_opt as qo
from pogame.qmat import I2, SIGMA_X, SIGMA_Z, pauli_coordinates, phi_plus

ALL_FAMILIES = [
    obs.trine(),
    obs.family_n(3),
    obs.family_n(5),
    obs.family_n(7),
    obs.family_quartets(5),
    obs.family_quartets(7),
    obs.family_quartets(9),
    obs.family_quartets(11),
    obs.family_quartets(13),
]


def test_trine_matrices():
    fam = obs.trine()
    assert np.allclose(fam.alice[0], SIGMA_Z)
    assert np.allclose(fam.alice[1], (np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z)
    assert np.allclose(fam.alice[2], -(np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z)


def test_trine_pairwise_anticommutators():
    fam = obs.trine()
    for x in range(3):
        for y in range(x + 1, 3):
            anti = fam.alice[x] @ fam.alice[y] + fam.alice[y] @ fam.alice[x]
            assert np.allclose(anti, -I2, atol=1e-12)


def test_trine_sum_vanishes():
    fam = obs.trine()
    assert operator_norm(sum(fam.alice)) <= 1e-12


def test_trine_bloch_overlaps():
    fam = obs.trine()
    blochs = pauli_coordinates(np.array(fam.alice))[:, 1:]
    for x in range(3):
        for y in range(x + 1, 3):
            assert blochs[x] @ blochs[y] == pytest.approx(-0.5, abs=1e-12)


def test_family_n3_matches_trine_up_to_rotation():
    # Anticommutator spectrum: all pairwise overlaps -1/2, as for the trine.
    fam = obs.family_n(3)
    blochs = pauli_coordinates(np.array(fam.alice))[:, 1:]
    for x in range(3):
        for y in range(x + 1, 3):
            assert blochs[x] @ blochs[y] == pytest.approx(-0.5, abs=1e-12)
            anti = fam.alice[x] @ fam.alice[y] + fam.alice[y] @ fam.alice[x]
            assert np.allclose(anti, -I2, atol=1e-12)


def transverse_weights(fam):
    """(nu, beta) read from the Bloch row (nu, -beta, -1/(n-1)) of setting 2."""
    nu, minus_beta, _ = pauli_coordinates(fam.alice[1])[1:]
    return nu, -minus_beta


def test_family_five_default_parameters():
    fam = obs.family_quartets(5)
    nu, beta = transverse_weights(fam)
    assert nu == pytest.approx(np.sqrt(15 / 32), abs=1e-12)
    assert nu**2 + beta**2 + 1 / 16 == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(sum(fam.alice)) <= 1e-12


def test_family_n5_default_split_and_sum():
    fam = obs.family_n(5)
    assert transverse_weights(fam)[0] == pytest.approx(np.sqrt(15 / 32), abs=1e-12)
    assert operator_norm(sum(fam.alice)) <= 1e-12


def test_family_rejects_even_n():
    with pytest.raises(ValueError):
        obs.family_n(4)


def test_family_quartets_domain_boundary():
    with pytest.raises(ValueError, match="^quartet families need n >= 5, got 3$"):
        obs.family_quartets(3)
    with pytest.raises(ValueError, match="^n must be odd and >= 3, got 4$"):
        obs.family_quartets(4)


def test_family_quartets_nine_sums_to_zero():
    fam = obs.family_quartets(9)
    total = np.zeros((2, 2), dtype=complex)
    for a in fam.alice:
        total = total + a
    assert operator_norm(total) <= 1e-12


def test_family_quartets_seven_has_extra_pair():
    fam = obs.family_quartets(7)
    assert fam.n == 7
    ys = pauli_coordinates(np.array(fam.alice))[:, 2]
    # one quartet (pattern -,-,+,+) plus a mirrored pair (-,+) after the z pivot
    assert ys[0] == pytest.approx(0.0, abs=1e-12)
    assert np.sign(ys[1:5]).tolist() == [-1.0, -1.0, 1.0, 1.0]
    assert ys[5] == pytest.approx(-ys[6], abs=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        obs.family_n(5, nu=0.9, beta=0.9)
    with pytest.raises(ValueError):
        obs.family_quartets(5, nu=0.1, beta=0.1)


def test_check_parity_condition_values():
    assert obs.check_parity_condition(obs.trine()) <= 1e-12
    assert obs.check_parity_condition(obs.family_n(7)) <= 1e-12


def test_check_parity_condition_detects_perturbation():
    fam = obs.trine()
    angle = 0.1
    rot = np.array(
        [[np.cos(angle / 2), -np.sin(angle / 2)], [np.sin(angle / 2), np.cos(angle / 2)]],
        dtype=complex,
    )
    alice = (rot @ fam.alice[0] @ rot.conj().T,) + fam.alice[1:]
    bob = tuple(-a.T for a in alice)
    perturbed = gc.QuantumSetup(state=phi_plus(), alice=alice, bob=bob)
    assert obs.check_parity_condition(perturbed) > 1e-3
    # One norm covers both constraints: ||(2/n) sum_x (I - A_x)/2 - I|| = ||sum_x A_x|| / n.
    total = alice[0] + alice[1] + alice[2]
    # The closed form |m0| + |v| is the SVD's norm within 4 ulp of it.
    svd_norm = operator_norm(total)
    assert abs(obs.check_parity_condition(perturbed) - svd_norm) <= oracles.ulp_tolerance(svd_norm)
    projector_sum = sum((I2 - a) / 2 for a in alice)
    assert np.linalg.norm((2 / 3) * projector_sum - I2, 2) == pytest.approx(np.linalg.norm(total, 2) / 3, abs=1e-15)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f"n{f.n}")
def test_family_invariants(fam):
    for m in fam.alice + fam.bob:
        assert np.allclose(m @ m, I2, atol=1e-12)
    assert operator_norm(sum(fam.alice)) <= 1e-10
    assert operator_norm(sum(fam.bob)) <= 1e-10
    proj_sum = sum((I2 - a) / 2 for a in fam.alice)
    assert operator_norm((2.0 / fam.n) * proj_sum - I2) <= 1e-10
    for a, b in zip(fam.alice, fam.bob):
        assert np.allclose(b, -a.T, atol=1e-12)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f"n{f.n}")
def test_squared_sum_identity(fam):
    # (sum A)^2 = n I + (pairwise anticommutator sum), checked via both routes.
    n = fam.n
    total = sum(fam.alice)
    delta = np.zeros((2, 2), dtype=complex)
    for x in range(n):
        for y in range(x + 1, n):
            delta += fam.alice[x] @ fam.alice[y] + fam.alice[y] @ fam.alice[x]
    assert operator_norm(total @ total - (n * I2 + delta)) <= 1e-10


def test_trine_bob_equals_minus_alice():
    fam = obs.trine()
    for a, b in zip(fam.alice, fam.bob):
        assert np.allclose(b, -a, atol=1e-12)


def test_obs_from_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        m = obs.obs_from_bloch(v)
        gc.assert_observable(m)
        assert np.allclose(pauli_coordinates(m)[1:], v, atol=1e-12)
        assert np.allclose(m, oracles.bloch_observables(v), atol=1e-15)


def test_obs_from_bloch_rejects_non_unit():
    with pytest.raises(ValueError):
        obs.obs_from_bloch([1.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda n: gc.QuantumSetup(phi_plus(), (SIGMA_Z,) * n, (SIGMA_Z,) * n),
        obs.family_n,
        gc.GameSpec,
        gc.bell_expression,
        qo.concavity_bound,
        qo.seesaw,
    ],
)
def test_odd_n_rule_message(call):
    for n in (1, 4):
        with pytest.raises(ValueError) as err:
            call(n)
        assert str(err.value) == f"n must be odd and >= 3, got {n}"


def test_bounds_follow_the_odd_n_rule_without_a_cap():
    for n in (1, 4):
        with pytest.raises(ValueError) as err:
            bounds.local_bound(n)
        assert str(err.value) == f"n must be odd and >= 3, got {n}"
    assert bounds.local_bound(15)[0] == bounds.local_bound_closed_form(15)


BIT_IDENTITY_N = [3, 5, 7, 9, 11, 13, 21, 41, 101]


def assert_bit_identical(got, want):
    """Equal values and equal sign bits, so that signed zeros agree as well."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _generated_pairs(n):
    """(Bloch-row generator, its hand-written oracle) for every family defined at n."""
    pairs = [(obs.family_n(n), oracles.family_n_sum(n))]
    if n == 3:
        pairs.append((obs.trine(), oracles.trine_sum()))
    else:
        pairs.append((obs.family_quartets(n), oracles.family_quartets_sum(n)))
    return pairs


@pytest.mark.parametrize("n", BIT_IDENTITY_N)
def test_bloch_row_generators_match_the_pauli_sums_bit_for_bit(n):
    for fam, want in _generated_pairs(n):
        assert_bit_identical(fam.alice, want.alice)
        assert_bit_identical(fam.bob, want.bob)
        assert type(fam) is gc.QuantumSetup
        assert_bit_identical(fam.state, phi_plus())
    assert_bit_identical(obs.spiral_configuration(n), oracles.sum_zero_configuration(n))


def test_spiral_configuration_starts_with_the_trine_in_the_xy_plane():
    assert_bit_identical(obs.spiral_configuration(3), obs.TRINE[:, [2, 0, 1]])
    assert not obs.TRINE.flags.writeable


@pytest.mark.parametrize("n", BIT_IDENTITY_N)
def test_every_generator_has_unit_rows_that_sum_to_zero(n):
    rows = [obs.spiral_configuration(n)]
    rows += [pauli_coordinates(np.array(fam.alice))[:, 1:] for fam, _ in _generated_pairs(n)]
    for bloch in rows:
        assert bloch.shape == (n, 3)
        assert np.max(np.abs(np.linalg.norm(bloch, axis=1) - 1.0)) <= 1e-15 * n
        assert np.max(np.abs(bloch.sum(axis=0))) <= 1e-15 * n
