import numpy as np
import pytest

from pogame import certify as ct
from pogame import gamecore as gc
from pogame import observables as obs
from pogame.qmat import I2, SIGMA_Z


def trine_pieces():
    fam = obs.trine()
    return gc.setup_from_family(fam), ct.canonical_povm(fam)


def test_canonical_povm_trine():
    _, povm = trine_pieces()
    total = np.zeros((2, 2), dtype=complex)
    for el in povm.elements:
        w = np.linalg.eigvalsh(el)
        assert np.allclose(w, [0.0, 2 / 3], atol=1e-12)
        total = total + el
    assert np.allclose(total, I2, atol=1e-12)


def test_canonical_povm_five():
    povm = ct.canonical_povm(obs.family_five())
    for el in povm.elements:
        assert np.allclose(np.linalg.eigvalsh(el), [0.0, 0.4], atol=1e-12)
    assert np.allclose(sum(povm.elements), I2, atol=1e-12)


def test_canonical_povm_rejects_invalid_family():
    fam = obs.trine()
    angle = 0.2
    rot = np.array(
        [[np.cos(angle / 2), -np.sin(angle / 2)], [np.sin(angle / 2), np.cos(angle / 2)]],
        dtype=complex,
    )
    alice = (rot @ fam.alice[0] @ rot.conj().T,) + fam.alice[1:]
    bad = obs.ObservableFamily(n=3, alice=alice, bob=tuple(-a.T for a in alice))
    with pytest.raises(ValueError):
        ct.canonical_povm(bad)


def test_povm_set_validation():
    with pytest.raises(ValueError):
        ct.PovmSet((I2 / 2, I2 / 4))  # does not sum to the identity
    with pytest.raises(ValueError):
        ct.PovmSet((1.5 * I2, -0.5 * I2))  # element not positive


def test_penalties_vanish_at_canonical():
    setup, povm = trine_pieces()
    assert np.max(ct.penalty_probabilities(setup, povm)) <= 1e-12


def test_shifted_value_canonical_alpha_independent():
    setup, povm = trine_pieces()
    for alpha in (0.5, 1.0, 2.0, 7.3):
        assert ct.shifted_bell_value(setup, povm, alpha) == pytest.approx(6.0, abs=1e-9)


def test_shifted_value_alpha_zero_reduces_to_bell():
    from pogame.quantum_opt import setup_bell_value

    setup, povm = trine_pieces()
    assert ct.shifted_bell_value(setup, povm, 0.0) == setup_bell_value(setup)


def test_aligned_povm_is_penalized():
    setup, _ = trine_pieces()
    aligned = ct.PovmSet(tuple((I2 + a) / 3 for a in obs.trine().alice))
    values = [ct.shifted_bell_value(setup, aligned, alpha) for alpha in (0.5, 1.0, 2.0)]
    assert all(v < 6.0 - 1e-6 for v in values)
    assert values[0] > values[1] > values[2]


def test_shifted_value_non_increasing_in_alpha():
    # Rotating the canonical POVM keeps it valid but makes penalties positive.
    rng = np.random.default_rng(67)
    setup, povm = trine_pieces()
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.1, 1.0)
        u = np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * obs.obs_from_bloch(axis)
        rotated = ct.PovmSet(tuple(u @ el @ u.conj().T for el in povm.elements))
        values = [ct.shifted_bell_value(setup, rotated, a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < values[0]


def test_gamma_reconstruction_round_trip():
    setup, povm = trine_pieces()
    stats = ct.povm_statistics(setup, povm)
    gam = ct.reconstruct_gamma(stats)
    assert np.allclose(gam[:, 0], 1 / 3, atol=1e-9)
    rebuilt = ct.gamma_elements(gam)
    for r, el in zip(rebuilt, povm.elements):
        assert np.max(np.abs(r - el)) <= 1e-8
    assert ct.reconstruction_deviation(stats, povm) <= 1e-8


def test_gamma_reconstruction_flags_misaligned_povm():
    setup, povm = trine_pieces()
    theta = 0.3
    ry = np.array(
        [[np.cos(theta / 2), -1j * np.sin(theta / 2)], [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
    )
    misaligned = ct.PovmSet(tuple(ry @ el @ ry.conj().T for el in povm.elements))
    deviation = ct.reconstruction_deviation(ct.povm_statistics(setup, misaligned), misaligned)
    assert deviation > 1e-2


def test_gamma_requires_three_settings():
    setup5 = gc.setup_from_family(obs.family_five())
    stats5 = ct.povm_statistics(setup5, ct.canonical_povm(obs.family_five()))
    with pytest.raises(ValueError):
        ct.reconstruct_gamma(stats5)


def test_extremality_cases():
    _, povm = trine_pieces()
    assert ct.extremality_check(povm) is True
    assert ct.extremality_check(ct.canonical_povm(obs.family_five())) is False
    assert ct.extremality_check(ct.PovmSet((I2 / 2, I2 / 2))) is False
    projective = ct.PovmSet(((I2 + SIGMA_Z) / 2, (I2 - SIGMA_Z) / 2))
    assert ct.extremality_check(projective) is True


def test_extremality_fails_beyond_four_outcomes():
    povm = ct.canonical_povm(obs.family_quartets(7))
    assert len(povm) == 7
    assert ct.extremality_check(povm) is False


def test_randomness_report_trine():
    setup, povm = trine_pieces()
    rep = ct.randomness_report(setup, povm)
    assert np.allclose(rep.outcome_probabilities, 1 / 3, atol=1e-9)
    assert rep.guessing_probability == pytest.approx(1 / 3, abs=1e-9)
    assert rep.min_entropy_bits == pytest.approx(np.log2(3), abs=1e-9)
    assert rep.extremal and rep.certified


def test_randomness_report_five_not_certified():
    setup = gc.setup_from_family(obs.family_five())
    rep = ct.randomness_report(setup, ct.canonical_povm(obs.family_five()))
    assert rep.extremal is False
    assert rep.certified is False
    assert np.allclose(rep.outcome_probabilities, 0.2, atol=1e-9)


def test_randomness_report_projective_pair():
    setup, _ = trine_pieces()
    projective = ct.PovmSet(((I2 + SIGMA_Z) / 2, (I2 - SIGMA_Z) / 2))
    rep = ct.randomness_report(setup, projective)
    assert rep.certified
    assert rep.guessing_probability == pytest.approx(0.5, abs=1e-9)
    assert rep.min_entropy_bits == pytest.approx(1.0, abs=1e-9)


def test_min_entropy_is_definitional():
    setup, povm = trine_pieces()
    rep = ct.randomness_report(setup, povm)
    assert rep.min_entropy_bits == -np.log2(rep.guessing_probability)


def test_penalty_requires_matching_sizes():
    setup, _ = trine_pieces()
    projective = ct.PovmSet(((I2 + SIGMA_Z) / 2, (I2 - SIGMA_Z) / 2))
    with pytest.raises(ValueError):
        ct.penalty_probabilities(setup, projective)


def test_negative_alpha_rejected():
    setup, povm = trine_pieces()
    with pytest.raises(ValueError):
        ct.shifted_bell_value(setup, povm, -1.0)


@pytest.mark.parametrize("n", [3, 5, 7, 13])
def test_povm_spectra_equal_each_element_spectrum(n):
    # The report's element_spectra read the stacked eigvalsh, so they must be the per-element values bit for bit.
    povm = ct.canonical_povm(obs.canonical_family(n))
    assert povm.spectra.shape == (n, 2)
    for el, spectrum in zip(povm.elements, povm.spectra):
        assert np.array_equal(spectrum, np.linalg.eigvalsh(el))


@pytest.mark.parametrize(
    "elements, message",
    [
        ((I2 / 2, I2 / 4), "POVM elements must sum to the identity"),
        ((), "POVM elements must sum to the identity"),
        ((1.5 * I2, -0.5 * I2), "POVM element is not positive semidefinite: min eig -0.5"),
        ((np.array([[0, 1], [0, 0]], dtype=complex), I2), "POVM elements must be 2x2 Hermitian matrices"),
        ((I2, np.eye(3)), "POVM elements must be 2x2 Hermitian matrices"),
        ((np.full((2, 2), np.nan),), "POVM elements must be 2x2 Hermitian matrices"),
    ],
    ids=["incomplete", "empty", "negative", "non-hermitian", "ragged", "nan"],
)
def test_povm_set_error_messages(elements, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ct.PovmSet(elements)
