import dataclasses
import importlib

import numpy as np
import pytest

import oracles
from pogame import certify as ct
from pogame import gamecore as gc
from pogame import observables as obs
from pogame.qmat import I2, SIGMA_X, SIGMA_Z, phi_plus
from pogame.report import build_report
from pogame.selftest import perturbed_state


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
    povm = ct.canonical_povm(obs.family_quartets(5))
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
    bad = gc.QuantumSetup(state=phi_plus(), alice=alice, bob=tuple(-a.T for a in alice))
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
    gam = oracles.reconstruct_gamma(stats)
    assert np.allclose(gam[:, 0], 1 / 3, atol=1e-9)
    rebuilt = oracles.gamma_elements(gam)
    for r, el in zip(rebuilt, povm.elements):
        assert np.max(np.abs(r - el)) <= 1e-8
    assert ct.reconstruction_deviation(setup, stats, povm) <= 1e-8


@pytest.mark.parametrize("delta", [0.0, 1e-2, 1e-3, 1e-5])
def test_reconstruction_matches_the_trine_oracle(delta):
    # On the trine's own frame both routes read the same deviation: roundoff
    # on phi+, and on a perturbed state the part its marginals hide.
    setup, povm = trine_pieces()
    if delta:
        setup = dataclasses.replace(setup, state=perturbed_state(delta))
    stats = ct.povm_statistics(setup, povm)
    expected = oracles.trine_reconstruction_deviation(stats, povm)
    assert ct.reconstruction_deviation(setup, stats, povm) == pytest.approx(expected, rel=1e-9, abs=1e-15)
    assert (expected <= 1e-15) == (delta == 0.0)


def _about_sigma_x(povm, theta=0.3):
    rx = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * SIGMA_X
    return ct.PovmSet(tuple(rx @ el @ rx.conj().T for el in povm.elements))


def test_gamma_reconstruction_flags_misaligned_povm():
    # Both families are planar.  Turning the POVM about sigma_x moves part of
    # each element off the plane of Alice's observables, where no correlator
    # sees it; the POVM as built round-trips.
    for family, expected in ((obs.trine(), 9.85e-2), (obs.family_n(7), 2.99e-2)):
        setup, povm = gc.setup_from_family(family), ct.canonical_povm(family)
        assert ct.reconstruction_deviation(setup, ct.povm_statistics(setup, povm), povm) <= 1e-8
        misaligned = _about_sigma_x(povm)
        deviation = ct.reconstruction_deviation(setup, ct.povm_statistics(setup, misaligned), misaligned)
        assert deviation > 1e-2
        assert deviation == pytest.approx(expected, rel=1e-2)


@pytest.mark.parametrize("n", [3, 5, 11, 13, 101])
def test_factored_reconstruction_matches_the_n_by_n_pinv_oracle(n):
    # The thin-QR route never forms the n x n correlators; the pinv of them is
    # the oracle, on found optima and on the canonical family with a POVM
    # turned off its plane, where the deviation is of order 1e-2.
    from pogame import quantum_opt as qo

    canonical = gc.setup_from_family(obs.canonical_family(n))
    cases = [(canonical, _about_sigma_x(ct.canonical_povm(canonical)))]
    for seed in range(3):
        found = qo.seesaw(n, seed=seed).setup
        cases.append((found, ct.canonical_povm(found)))
    for setup, povm in cases:
        stats = ct.povm_statistics(setup, povm)
        want = oracles.reconstruction_deviation_pinv(setup, stats, povm)
        assert abs(ct.reconstruction_deviation(setup, stats, povm) - want) <= 1e-14


def test_gamma_requires_three_settings():
    # The trine formulas are the n = 3 oracle only; the production route reads any n.
    fam5 = obs.family_quartets(5)
    setup5, povm5 = gc.setup_from_family(fam5), ct.canonical_povm(fam5)
    stats5 = ct.povm_statistics(setup5, povm5)
    with pytest.raises(ValueError):
        oracles.reconstruct_gamma(stats5)
    assert ct.reconstruction_deviation(setup5, stats5, povm5) <= 1e-8


def test_extremality_cases():
    _, povm = trine_pieces()
    assert ct.extremality_check(povm) is True
    assert ct.extremality_check(ct.canonical_povm(obs.family_quartets(5))) is False
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
    setup = gc.setup_from_family(obs.family_quartets(5))
    rep = ct.randomness_report(setup, ct.canonical_povm(obs.family_quartets(5)))
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
    # The report's element_spectra are the closed forms m0 -+ |v|; each must be
    # LAPACK's per-element eigvalsh within 4 ulp of the element's norm.
    povm = ct.canonical_povm(obs.canonical_family(n))
    assert povm.spectra.shape == (n, 2)
    for el, spectrum in zip(povm.elements, povm.spectra):
        want = np.linalg.eigvalsh(el)
        assert np.max(np.abs(spectrum - want)) <= oracles.ulp_tolerance(np.max(np.abs(want)))


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


@pytest.mark.parametrize("n", [3, 5, 13])
def test_report_reads_the_povm_statistics_it_already_has(n):
    # The certify section takes the marginals from povm_statistics and the
    # completeness norm from PovmSet.  The marginals equal the standalone route
    # bit for bit; the closed-form norm is the SVD's within 4 ulp.
    rng = np.random.default_rng(300 + n)
    fam = obs.canonical_family(n)
    povm = ct.canonical_povm(fam)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    random_state = gc.QuantumSetup(state=state / np.linalg.norm(state), alice=fam.alice, bob=fam.bob)
    for setup in (gc.setup_from_family(fam), random_state):
        stats = ct.povm_statistics(setup, povm)
        assert ct.randomness_from_marginals(stats.marginals, povm) == ct.randomness_report(setup, povm)
        # The flagged probabilities are the diagonal table[k, k, 1], by either route.
        assert np.array_equal(stats.penalties, [stats.table[k, k, 1] for k in range(n)])
        assert np.array_equal(ct.penalty_probabilities(setup, povm), stats.penalties)
    svd_norm = oracles.operator_norm(sum(povm.elements) - np.eye(2))
    assert abs(povm.completeness_deviation - svd_norm) <= oracles.ulp_tolerance(1.0)
    assert povm.completeness_deviation <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 7, 13])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_report_bell_values_equal_the_quantum_value(n, seed):
    # The SOS and POVM sections read the Bell value from the Pauli form, the
    # optimization from the see-saw's top eigenvalue.  No Check compares them,
    # so a wrong diagonal weight (sum E - 3 tr E for sum E - 2 tr E) would
    # pass every Check; this test catches it.
    report, _ = build_report(n, seed=seed)
    for value in (report.povm["bell_value"], report.povm["shifted_bell_value"], report.sos["bell_value"]):
        assert abs(value - report.quantum_value) <= 1e-9


def test_canonical_povm_parity_violation_is_a_certification_error():
    fam = obs.trine()
    tilted = (obs.obs_from_bloch([np.sin(0.2), 0.0, np.cos(0.2)]),) + fam.alice[1:]
    bad = gc.QuantumSetup(state=phi_plus(), alice=tilted, bob=tuple(-a.T for a in tilted))
    with pytest.raises(gc.CertificationError, match="^family violates the parity condition by"):
        ct.canonical_povm(bad)
    assert issubclass(gc.CertificationError, ValueError)


def _lapack_spies(monkeypatch):
    """Record (name, operand shape) of every SVD and eigensolver call once the see-saw has returned."""
    from pogame import quantum_opt as qo

    calls, armed = [], []
    seesaw = qo.seesaw

    def armed_seesaw(*args, **kwargs):
        result = seesaw(*args, **kwargs)
        armed.append(True)
        return result

    monkeypatch.setattr(qo, "seesaw", armed_seesaw)
    # pinv, matrix_rank and norm call the solvers through their own module's globals.
    linalg_module = importlib.import_module("numpy.linalg._linalg")
    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals"):
        original = getattr(linalg_module, name)

        def spy(a, *args, _name=name, _original=original, **kwargs):
            if armed:
                calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(linalg_module, name, spy)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("n", [5, 7, 13])
def test_certificate_stages_call_lapack_only_for_the_reconstruction_pinv(n, monkeypatch):
    # The SOS and certify sections of a report and the operational parity
    # check run on Pauli coordinates and closed forms, with no SVD-based norm
    # and no 2x2 eigensolver.  The self-test section, which the report runs at
    # n = 5, splits its circuit outputs by SVD; it is stubbed out here.  The
    # reconstruction's one pinv acts on the 4x4 factor K of the correlators.
    from pogame import report as report_mod

    calls = _lapack_spies(monkeypatch)
    monkeypatch.setattr(report_mod, "selftest_section", lambda setup: (None, []))
    build_report(n)
    assert calls == [("svd", (4, 4))]


def test_certificate_stages_at_three_settings_use_no_two_by_two_solver(monkeypatch):
    # At n = 3 the extremality rank test adds one SVD of the (3, 4) coordinates
    # and the self-test its Schmidt splits; none acts on a 2x2 matrix.
    calls = _lapack_spies(monkeypatch)
    build_report(3)
    assert {name for name, _ in calls} == {"svd"}
    assert ("svd", (3, 3)) in calls and ("svd", (3, 4)) in calls
    assert all(shape[-2:] != (2, 2) for _, shape in calls)
