"""Property tests over random gauges and observables (skipped without hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from pogame import bounds  # noqa: E402
from pogame import gamecore as gc  # noqa: E402
from pogame import quantum_opt as qo  # noqa: E402
from pogame.observables import canonical_family  # noqa: E402
from pogame.report import _TARGETS_3, _TARGETS_5, CertificationReport, build_report, flatten  # noqa: E402
from pogame.selftest import perturbed_state  # noqa: E402
from pogame.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, apply_local, phi_plus  # noqa: E402

import oracles  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)

angles = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)
odd_n = st.sampled_from([3, 5, 7, 9, 13])


def _rotation(alpha, beta, gamma, delta):
    """exp(i alpha) Rz(beta) Ry(gamma) Rz(delta): every 2x2 unitary has this form."""

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    ry = np.cos(gamma / 2) * I2 - 1j * np.sin(gamma / 2) * SIGMA_Y
    return np.exp(1j * alpha) * rz(beta) @ ry @ rz(delta)


unitaries = st.builds(_rotation, angles, angles, angles, angles)


def _bloch_observable(v):
    v = np.asarray(v) / np.linalg.norm(v)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def _unit_state(v):
    psi = np.asarray(v[:4]) + 1j * np.asarray(v[4:])
    return psi / np.linalg.norm(psi)


unit_range = st.floats(-1.0, 1.0)
# Hermitian and squaring to the identity: the trivial +-I or a Bloch direction.
observables = st.one_of(
    st.sampled_from([I2, -I2]),
    st.tuples(*[unit_range] * 3).filter(lambda v: np.linalg.norm(v) > 0.1).map(_bloch_observable),
)
states = st.tuples(*[unit_range] * 8).filter(lambda v: np.linalg.norm(v) > 0.1).map(_unit_state)


@st.composite
def observable_pairs(draw):
    n = draw(odd_n)
    alice = draw(st.lists(observables, min_size=n, max_size=n))
    bob = draw(st.lists(observables, min_size=n, max_size=n))
    return alice, bob


def _rotated(setup, u, v):
    return gc.QuantumSetup(
        state=np.kron(u, v) @ setup.state,
        alice=tuple(u @ a @ u.conj().T for a in setup.alice),
        bob=tuple(v @ b @ v.conj().T for b in setup.bob),
    )


@PROPERTY_SETTINGS
@given(observable_pairs(), states, unitaries, unitaries)
def test_bell_value_and_spectrum_invariant_under_local_unitaries(pair, state, u, v):
    alice, bob = pair
    canonical = gc.setup_from_family(canonical_family(len(alice)))
    random = gc.QuantumSetup(state=state, alice=tuple(alice), bob=tuple(bob))
    for base in (canonical, random):
        moved = _rotated(base, u, v)
        assert abs(qo.setup_bell_value(moved) - qo.setup_bell_value(base)) <= 1e-9
        spectrum = np.linalg.eigvalsh(qo.bell_operator(base.alice, base.bob))
        moved_spectrum = np.linalg.eigvalsh(qo.bell_operator(moved.alice, moved.bob))
        assert np.max(np.abs(moved_spectrum - spectrum)) <= 1e-9


@PROPERTY_SETTINGS
@given(observable_pairs())
def test_bell_operator_matches_loop_oracle(pair):
    alice, bob = pair
    got = qo.bell_operator(alice, bob)
    assert np.max(np.abs(got - oracles.bell_operator_loop(alice, bob))) <= 1e-12


@PROPERTY_SETTINGS
@given(observable_pairs(), states, unitaries, unitaries)
def test_born_rule_behaviors_no_signalling_and_match_oracle(pair, state, u, v):
    alice, bob = pair
    random = gc.QuantumSetup(state=state, alice=tuple(alice), bob=tuple(bob))
    for setup in (random, _rotated(random, u, v)):
        beh = gc.behavior_from_setup(setup)
        assert beh.no_signaling_defect() <= 1e-12
        assert np.max(np.abs(beh.table - oracles.behavior_loop(setup))) <= 1e-12


@st.composite
def seesaw_inits(draw, n):
    """None, or a random setup whose observables need not sum to zero."""
    if not draw(st.booleans()):
        return None
    alice = draw(st.lists(observables, min_size=n, max_size=n))
    bob = draw(st.lists(observables, min_size=n, max_size=n))
    return gc.QuantumSetup(state=draw(states), alice=tuple(alice), bob=tuple(bob))


@PROPERTY_SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7]), st.integers(1, 8))
def test_seesaw_traces_monotone_and_value_is_best_restart(data, seed, n, restarts):
    init = data.draw(seesaw_inits(n))
    result = qo.seesaw(n, seed=seed, restarts=restarts, init=init)
    assert len(result.traces) == restarts
    for trace in result.traces:
        assert np.all(np.diff(trace) >= -1e-9)
    assert result.value == max(result.restart_values)
    assert result.best_restart == result.restart_values.index(result.value)  # earliest of the ties


@st.composite
def alice_vectors_and_permutations(draw):
    n = draw(odd_n)
    a = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return np.array(a), np.array(draw(st.permutations(range(n))))


@PROPERTY_SETTINGS
@given(alice_vectors_and_permutations())
def test_best_bob_value_is_permutation_invariant(pair):
    # The orbit scans in ``bounds`` rest on this: permuting Alice's entries permutes Bob's reply.
    a, perm = pair
    b, value = bounds._best_bob(a)
    b_moved, value_moved = bounds._best_bob(a[perm])
    assert value_moved == value
    assert np.array_equal(b_moved, b[perm])


@settings(max_examples=15, deadline=None, database=None)
@given(odd_n, st.integers(0, 2**32 - 1))
def test_report_round_trips(n, seed):
    report, _ = build_report(n, seed=seed, restarts=2)
    text = report.to_json()
    parsed = CertificationReport.from_json(text)
    assert parsed == report
    assert parsed.to_json() == text
    assert CertificationReport.from_dict(report.to_dict()) == report
    csv_keys = [line.split(",", 1)[0] for line in report.to_csv().splitlines()[1:]]
    assert csv_keys == [key for key, _ in flatten(report.to_dict())]


# No shrink phase: a failing (n, u, v) is readable as drawn, and shrinking its
# eight angles can take minutes where the unshrunk failure takes seconds.
@settings(max_examples=25, deadline=None, database=None, phases=[Phase.generate])
@given(st.integers(1, 20).map(lambda k: 2 * k + 1), unitaries, unitaries)
def test_behavior_round_trips_bit_for_bit(n, u, v):
    # The canonical family measured on phi+ turned by random local unitaries.
    setup = gc.setup_from_family(canonical_family(n))
    setup = gc.QuantumSetup(state=apply_local(u, v, phi_plus()).reshape(-1), alice=setup.alice, bob=setup.bob)
    beh = gc.behavior_from_setup(setup)
    csv, doc = gc.behavior_to_csv(beh), gc.behavior_to_json(beh)
    assert csv == oracles.behavior_to_csv_loop(beh)
    assert doc == oracles.behavior_to_json_loop(beh)
    for back in (gc.behavior_from_csv(csv), gc.behavior_from_json(doc)):
        assert back.n == n
        assert back.table.tobytes() == beh.table.tobytes()


@PROPERTY_SETTINGS
@given(st.sampled_from([3, 5]), st.sampled_from([0.0, 0.05]), unitaries, unitaries)
def test_stacked_selftest_matches_loop_oracle_under_local_unitaries(n, delta, u, v):
    canonical = gc.setup_from_family(canonical_family(n))
    state = perturbed_state(delta) if delta else canonical.state
    setup = _rotated(gc.QuantumSetup(state=state, alice=canonical.alice, bob=canonical.bob), u, v)
    targets = ("state",) + (_TARGETS_3 if n == 3 else _TARGETS_5)
    oracles.assert_stacked_selftest_matches(setup, targets)
