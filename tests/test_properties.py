"""Property tests over random gauges and observables (skipped without hypothesis)."""

import json
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from pogame import bounds  # noqa: E402
from pogame import certify  # noqa: E402
from pogame import gamecore as gc  # noqa: E402
from pogame import qmat  # noqa: E402
from pogame import quantum_opt as qo  # noqa: E402
from pogame import report  # noqa: E402
from pogame import selftest  # noqa: E402
from pogame.observables import canonical_family, family_n, family_quartets  # noqa: E402
from pogame.report import CertificationReport, build_report, flatten  # noqa: E402
from pogame.selftest import perturbed_state  # noqa: E402
from pogame.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, apply_local, phi_plus  # noqa: E402

import oracles  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None, print_blob=True)

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


def _qubit_state(v):
    psi = np.asarray(v[:2]) + 1j * np.asarray(v[2:])
    return psi / np.linalg.norm(psi)


qubit_states = st.tuples(*[unit_range] * 4).filter(lambda v: np.linalg.norm(v) > 0.1).map(_qubit_state)


@st.composite
def parity_setups(draw):
    """A random setup, or a product state |a>|b> on which Alice's first observable never gives one outcome."""
    alice, bob = draw(observable_pairs())
    if not draw(st.booleans()):
        return gc.QuantumSetup(state=draw(states), alice=tuple(alice), bob=tuple(bob)), False
    a, b = draw(qubit_states), draw(qubit_states)
    first = draw(st.sampled_from([1.0, -1.0])) * (2.0 * np.outer(a, a.conj()) - I2)
    return gc.QuantumSetup(state=np.kron(a, b), alice=(first,) + tuple(alice[1:]), bob=tuple(bob)), True


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


@settings(max_examples=100, deadline=None, database=None, print_blob=True)
@given(parity_setups())
def test_operational_parity_matches_the_states_route_and_loop_oracle(case):
    setup, product = case
    states = gc.steered_states(setup)
    # On a product state one branch of Alice's first setting has probability 0.
    assert any(s.degenerate for s in states) or not product
    parity = gc.operational_parity(setup)
    assert parity == gc.check_operational_parity(states)
    # The loop adds the 2n states, each of norm at most 1, in another order, so
    # the two round differently by up to about 1e-16 per state.
    assert abs(parity - oracles.operational_parity_loop(states)) <= 1e-15 * setup.n


@PROPERTY_SETTINGS
@given(odd_n, st.data())
def test_no_signaling_defect_matches_reduction_oracle_bit_for_bit(n, data):
    entries = st.one_of(st.floats(-1e300, 1e300), st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
    table = np.array(data.draw(st.lists(entries, min_size=4 * n * n, max_size=4 * n * n))).reshape(n, n, 2, 2)
    beh = gc.Behavior(n=n, table=table)
    assert beh.no_signaling_defect() == oracles.no_signaling_defect_reduction(beh)


def _hermitian(top, bottom, re, im):
    return np.array([[top, re - 1j * im], [re + 1j * im, bottom]])


finite = st.floats(-10.0, 10.0)
# Random Hermitian 2x2 matrices, scalar multiples of the identity, and zero.
hermitians = st.one_of(
    st.builds(_hermitian, finite, finite, finite, finite),
    finite.map(lambda c: c * I2),
    st.just(np.zeros((2, 2), dtype=complex)),
)


@PROPERTY_SETTINGS
@given(odd_n, angles)
def test_bloch_row_families_match_the_pauli_sums_on_the_normalization_circle(n, theta):
    # nu^2 + beta^2 = 1 - 1/(n-1)^2, at any angle: signs of nu and beta included.
    radius = np.sqrt(1.0 - 1.0 / (n - 1) ** 2)
    nu, beta = radius * np.cos(theta), radius * np.sin(theta)
    pairs = [(family_n(n, nu, beta), oracles.family_n_sum(n, nu, beta))]
    if n >= 5:
        pairs.append((family_quartets(n, nu, beta), oracles.family_quartets_sum(n, nu, beta)))
    for fam, want in pairs:
        # Equal values; a zero entry may differ in sign where nu or beta is itself 0.
        assert np.array_equal(fam.alice, want.alice) and np.array_equal(fam.bob, want.bob)
        assert np.array_equal(fam.state, phi_plus())


@PROPERTY_SETTINGS
@given(st.lists(hermitians, min_size=1, max_size=6))
def test_closed_form_sign_matches_eigh_oracle(mats):
    m = np.array(mats)
    sign = qmat.from_pauli(qo._matrix_sign(qmat.pauli_coordinates(m)))
    assert np.array_equal(sign, np.swapaxes(sign.conj(), -1, -2))
    assert np.max(np.abs(sign @ sign - I2)) <= 1e-12
    # Both routes find an eigenvalue only to roundoff in the norm of m, so they
    # may give a tiny one either sign: compare where no eigenvalue is that
    # small, and on multiples of the identity, which both get exactly.
    w = np.linalg.eigvalsh(m)
    scalar = (m[:, 0, 0] == m[:, 1, 1]) & (m[:, 1, 0] == 0)
    clear = (np.min(np.abs(w), axis=-1) > 1e-9 * (1.0 + np.max(np.abs(w), axis=-1))) | scalar
    assert np.max(np.abs(sign - oracles.matrix_sign_eigh(m))[clear], initial=0.0) <= 1e-12


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


def test_seesaw_median_search_takes_an_iterate_next_to_a_point():
    # A draw of the property above: the geometric median's iterate comes so
    # close to a Bloch target that a 1/r^3 Hessian weight would overflow.
    psi = np.array([0, 1j, 1e-60j, 0])
    init = gc.QuantumSetup(
        state=psi / np.linalg.norm(psi), alice=(I2, -I2, (SIGMA_Y + SIGMA_Z) / np.sqrt(2)), bob=(I2, I2, I2)
    )
    result = qo.seesaw(3, seed=0, restarts=1, init=init)
    assert result.value == 5.0


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


@settings(max_examples=15, deadline=None, database=None, print_blob=True)
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
@settings(max_examples=25, deadline=None, database=None, print_blob=True, phases=[Phase.generate])
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


# Substitutes for one number of a behavior text: out-of-range and overflowing
# indices, a float in an int field, non-finite probabilities, a number too
# large for a float, and JSON values that are not numbers.
_HOSTILE_NUMBERS = [
    "0", "-1", "7", "1.7", "99999999999999999999", "9223372036854775807", "-9223372036854775808",
    "nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "true", "null",
]
_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def mutated_behavior_texts(draw):
    """A valid CSV or JSON behavior text at n in {3, 5}, with one to three edits.

    An edit deletes, inserts or replaces characters; drops, duplicates or
    swaps lines (CSV rows, or JSON entries split at ``, "``); puts a
    hostile number in place of one number of the text; or quotes one number.
    """
    n = draw(st.sampled_from([3, 5]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    base = gc.setup_from_family(canonical_family(n))
    setup = _rotated(base, *(draw(unitaries) for _ in range(2)))
    beh = gc.behavior_from_setup(setup)
    text = gc.behavior_to_csv(beh) if fmt == "csv" else gc.behavior_to_json(beh)
    sep = "\n" if fmt == "csv" else ', "'
    chars = st.one_of(st.sampled_from(list('0123456789,.-+eE\n []{}":naifNI')), st.characters())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "drop", "duplicate", "swap", "number", "quote"]))
        if kind in ("delete", "insert", "replace"):
            i = draw(st.integers(0, max(len(text) - 1, 0)))
            size = draw(st.integers(1, 3))
            ins = draw(st.text(chars, min_size=1, max_size=5)) if kind != "delete" else ""
            text = text[:i] + ins + text[i + (size if kind != "insert" else 0) :]
        elif kind in ("number", "quote"):
            spans = [m.span() for m in _NUMBER.finditer(text)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                swap = draw(st.sampled_from(_HOSTILE_NUMBERS)) if kind == "number" else f'"{text[start:end]}"'
                text = text[:start] + swap + text[end:]
        else:
            units = text.split(sep)
            i, j = draw(st.integers(0, len(units) - 1)), draw(st.integers(0, len(units) - 1))
            if kind == "drop":
                del units[i]
            elif kind == "duplicate":
                units.insert(j, units[i])
            else:
                units[i], units[j] = units[j], units[i]
            text = sep.join(units)
    return fmt, text


_TRINE = gc.behavior_from_setup(gc.setup_from_family(canonical_family(3)))
_TRINE_CSV, _TRINE_JSON = gc.behavior_to_csv(_TRINE), gc.behavior_to_json(_TRINE)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(mutated_behavior_texts())
# A probability too large for a float, arrays nested past the recursion limit,
# a setting whose 0-based index wraps around int64, and a character beyond
# U+FFFF after an ASCII row (on which numpy 2.4's loadtxt was seen to crash).
@example(("csv", _TRINE_CSV.replace("\n1,1,0,1,", "\n1,1,0,\U000b6c2f1,", 1)))
@example(("json", _TRINE_JSON.replace("[[", "[[1" + "0" * 400 + ", ", 1)))
@example(("json", _TRINE_JSON.replace('"1,1"', '"-9223372036854775808,1"', 1)))
@example(("json", _TRINE_JSON.replace("[[", "[" * 100_000 + "]" * 99_999 + ", [[", 1)))
def test_behavior_readers_round_trip_or_raise_value_error(case):
    fmt, text = case
    reader, writer = {
        "csv": (gc.behavior_from_csv, gc.behavior_to_csv),
        "json": (gc.behavior_from_json, gc.behavior_to_json),
    }[fmt]
    tracemalloc.start()
    try:
        beh = reader(text)
    except ValueError:
        beh = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # Linear in the input: valid texts at n from 3 to 41 peak at 6-16 bytes
    # per character, and 1,500 mutated ones at 111 kB at most, 27 per character.
    assert peak <= 64 * len(text) + 2**18
    if beh is not None:
        assert reader(writer(beh)).table.tobytes() == beh.table.tobytes()
        if fmt == "json":  # an accepted document holds JSON numbers only
            blocks = json.loads(text)["table"].values()
            assert all(type(p) in (int, float) for block in blocks for row in block for p in row)


@PROPERTY_SETTINGS
@given(st.sampled_from([3, 5]), st.sampled_from([0.0, 0.05]), unitaries, unitaries)
def test_stacked_selftest_matches_loop_oracle_under_local_unitaries(n, delta, u, v):
    canonical = gc.setup_from_family(canonical_family(n))
    state = perturbed_state(delta) if delta else canonical.state
    setup = _rotated(gc.QuantumSetup(state=state, alice=canonical.alice, bob=canonical.bob), u, v)
    targets = selftest.all_targets(selftest.build_selftest_operators(setup))
    oracles.assert_stacked_selftest_matches(setup, targets)


def _haar_unitary(seed):
    """Haar-random 2x2 unitary: QR of a complex Gaussian matrix with the phases of R's diagonal fixed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


haar_unitaries = st.integers(0, 2**32 - 1).map(_haar_unitary)


@settings(max_examples=30, deadline=None, database=None, print_blob=True, phases=[Phase.generate])
@given(st.integers(1, 20).map(lambda k: 2 * k + 1), haar_unitaries, haar_unitaries, st.floats(0.1, 1.4))
def test_selftest_passes_for_every_odd_n_and_fails_when_perturbed(n, u, v, angle):
    # The swap frame is read from the correlations, so any odd n and any
    # local gauge self-test; a perturbed state fails every check but the
    # span check, which is operator-level: the observables still lie in the
    # swap frame.  The quartets with nu != beta have d_k != 0: an X part to
    # take out of the y remainder.
    families = [canonical_family(n), family_n(n)]
    if n >= 5:
        weight = np.sqrt(1 - 1 / (n - 1) ** 2)
        families.append(family_quartets(n, weight * np.cos(angle), weight * np.sin(angle)))
    for family in families:
        for state, passes in ((phi_plus(), [True] * 5), (perturbed_state(0.05), [False, False, False, True, False])):
            setup = _rotated(gc.QuantumSetup(state=state, alice=family.alice, bob=family.bob), u, v)
            _, checks = report.selftest_section(setup)
            assert [check.passed for check in checks] == passes, (family.n, checks)


@PROPERTY_SETTINGS
@given(st.sampled_from([3, 5, 7, 13]), st.booleans(), haar_unitaries, haar_unitaries)
def test_povm_reconstruction_round_trips_in_every_local_frame(n, mirrored, u, v):
    # The rebuild reads only correlators with Bob's settings, so a local gauge
    # of the setup, which turns the POVM with Alice's observables, changes nothing.
    family = family_n(n) if mirrored else canonical_family(n)
    setup = _rotated(gc.setup_from_family(family), u, v)
    povm = certify.canonical_povm(setup)
    stats = certify.povm_statistics(setup, povm)
    assert certify.reconstruction_deviation(setup, stats, povm) <= 1e-8


def _median_slice(rng, kind, n):
    """n points in [-3, 3]^3 of one kind; "near" puts one within 1e-12 of the others' median."""
    if kind == "generic":
        return rng.uniform(-3, 3, size=(n, 3))
    if kind == "unit":  # random unit directions
        vecs = rng.normal(size=(n, 3))
        return vecs / np.linalg.norm(vecs, axis=1)[:, None]
    if kind == "collinear":
        return rng.uniform(-3, 3, size=3) + rng.uniform(-3, 3, size=(n, 1)) * rng.normal(size=3)
    if kind == "repeated":
        distinct = rng.uniform(-3, 3, size=(int(rng.integers(1, n)), 3))
        return distinct[rng.integers(0, len(distinct), size=n)]
    others = rng.uniform(-3, 3, size=(n - 1, 3))
    mu = oracles.geometric_median_weiszfeld(others)
    nearest = others[np.argmin(np.linalg.norm(others - mu, axis=1))]
    if np.linalg.norm(nearest - mu) < 1e-9:  # the others' median is one of them: repeat it
        point = nearest
    else:
        point = mu + rng.uniform(-1e-12, 1e-12, size=3) * rng.integers(0, 2)
    return np.vstack([others, point])[rng.permutation(n)]


@settings(max_examples=60, deadline=None, database=None, print_blob=True)
@given(
    st.integers(1, 20).map(lambda k: 2 * k + 1),
    st.sampled_from(["generic", "unit", "collinear", "repeated", "near"]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
# A centroid test with the search loop's bound, which grows next to a point,
# returned the centroid a hair from a target, with a unit pull of 1, on these.
@example(n=3, kind="near", count=2, seed=0)
@example(n=3, kind="near", count=1, seed=1)
def test_geometric_median_meets_kuhn_and_beats_weiszfeld(n, kind, count, seed):
    rng = np.random.default_rng(seed)
    batch = np.array([_median_slice(rng, kind, n) for _ in range(count)])
    for pts, mu in zip(batch, qo._geometric_median(batch)):
        assert np.array_equal(mu, qo._geometric_median(pts))
        diff = pts - mu
        dist = np.linalg.norm(diff, axis=1)
        on_point = dist == 0
        strength = np.linalg.norm((diff[~on_point] / dist[~on_point, None]).sum(axis=0))
        # Kuhn's condition on a data point; a vanishing pull anywhere else.
        assert strength <= (np.count_nonzero(on_point) if on_point.any() else 1e-9), (strength, on_point.sum())
        weiszfeld = oracles.geometric_median_weiszfeld(pts)
        assert dist.sum() <= np.linalg.norm(pts - weiszfeld, axis=1).sum() + 1e-12


# Report trees: nested dicts, lists and tuples over Python and numpy scalars.
# Non-finite floats (ValueError) and unknown types (TypeError for JSON) are
# drawn now and then, so the error paths are compared too.
report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.text(max_size=6),
)
rare_leaves = st.sampled_from(
    [float("nan"), float("inf"), np.float64("-inf"), np.float32("nan"), 1j, b"x", frozenset()]
)
report_trees = st.recursive(
    st.one_of(report_leaves, report_leaves, report_leaves, report_leaves, rare_leaves),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)), children, max_size=4),
    ),
    max_leaves=24,
)


def _outcome(render, *args):
    """What ``render(*args)`` returns, or the type and message of what it raises."""
    try:
        return render(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(report_trees, st.integers(0, 3), st.sampled_from(["", "key", "a.0"]))
@example(tree={"a": [1.5, {"": [np.int64(2), None, True]}, (), {}]}, indent=0, prefix="")
@example(tree=[np.float64("nan"), 1j], indent=1, prefix="")
@example(tree=[1j, float("inf")], indent=0, prefix="")
def test_renderers_match_the_recursive_oracle(tree, indent, prefix):
    assert _outcome(report.render_json, tree, indent) == _outcome(oracles.render_json_recursive, tree, indent)
    assert _outcome(report.flatten, tree, prefix) == _outcome(oracles.flatten_recursive, tree, prefix)


@settings(max_examples=100, deadline=None, database=None, print_blob=True)
@given(st.lists(report_trees, min_size=10, max_size=10))
def test_report_formats_match_the_recursive_oracle(trees):
    # Any trees in the fields, with pnc_bound <= quantum_value as the constructor requires.
    n, local, *sections = trees
    doc = CertificationReport(n, local, 0, 0.0, *sections)
    d = doc.to_dict()
    assert _outcome(doc.to_json) == _outcome(lambda: oracles.render_json_recursive(d) + "\n")
    assert _outcome(doc.to_csv) == _outcome(oracles.report_csv_recursive, d)
    assert _outcome(doc.to_text) == _outcome(oracles.report_text_recursive, d)


@pytest.mark.parametrize("n", [3, 5, 13])
def test_report_formats_match_the_recursive_oracle_on_reports(n):
    doc, _ = build_report(n, seed=7)
    d = doc.to_dict()
    assert doc.to_json() == oracles.render_json_recursive(d) + "\n"
    assert report.flatten(d) == oracles.flatten_recursive(d)
    assert doc.to_csv() == oracles.report_csv_recursive(d)
    assert doc.to_text() == oracles.report_text_recursive(d)
    parsed = CertificationReport.from_json(doc.to_json()).to_dict()
    assert report.render_json(parsed) == oracles.render_json_recursive(parsed)


# ---------------------------------------------------------------------------
# The Pauli-coordinate kernel: closed-form 2x2 spectra and norms, and the
# routes that certify a setup on its Pauli form.
# ---------------------------------------------------------------------------


def _exact_spectrum(m):
    """Eigenvalues and spectral norm of the Hermitian matrix given by m's lower triangle, in 40-digit decimals.

    Every entry converts exactly, so each result is rounded once.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        top, bottom = Decimal(m[0, 0].real), Decimal(m[1, 1].real)
        re, im = Decimal(m[1, 0].real), Decimal(m[1, 0].imag)
        m0, z = (top + bottom) / 2, (top - bottom) / 2
        length = (z * z + re * re + im * im).sqrt()
        return np.array([float(m0 - length), float(m0 + length)]), float(abs(m0) + length)


# Normalized mantissas and moderate binary exponents, so 4 ulp of any nonzero scale is a normal number.
mantissas = st.one_of(st.just(0.0), st.floats(0.5, 1.0), st.floats(-1.0, -0.5))
scaled_floats = st.builds(lambda mantissa, exponent: mantissa * 2.0**exponent, mantissas, st.integers(-40, 40))


@st.composite
def pauli_hermitians(draw):
    """m = m0 I + v . sigma; about half nearly degenerate (|v| << |m0|, so sigma_1 ~ sigma_2)."""
    m0 = draw(scaled_floats)
    v = np.array(draw(st.tuples(scaled_floats, scaled_floats, scaled_floats)))
    if draw(st.booleans()):
        v *= abs(m0) * 2.0 ** draw(st.integers(-50, -4)) / max(np.max(np.abs(v)), 2.0**-60)
    return qmat.from_pauli(np.array([m0, *v]))


@settings(max_examples=300, deadline=None, database=None, print_blob=True, derandomize=True)
@given(pauli_hermitians())
def test_closed_form_spectra_and_norms_match_lapack(m):
    coords = qmat.pauli_coordinates(m)
    spectrum, norm = qmat.hermitian_spectra(coords), float(qmat.hermitian_norms(coords))
    exact_spectrum, exact_norm = _exact_spectrum(m)
    scale = exact_norm
    # The closed forms round a few exact operations: within 2 ulp of the scale.
    assert np.max(np.abs(spectrum - exact_spectrum)) <= oracles.ulp_tolerance(scale, ulps=2)
    assert abs(norm - exact_norm) <= oracles.ulp_tolerance(scale, ulps=2)
    # Against LAPACK: the SVD norm within 4 ulp; eigvalsh within 8, since it
    # alone was measured up to 6.0 ulp from the exact values over 200,000 draws.
    assert abs(norm - oracles.operator_norm(m)) <= oracles.ulp_tolerance(scale)
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(m))) <= oracles.ulp_tolerance(scale, ulps=8)


@PROPERTY_SETTINGS
@given(odd_n, st.integers(0, 2**16), haar_unitaries, haar_unitaries)
def test_pauli_form_routes_match_the_matrix_routes_in_every_gauge(n, seed, u, v):
    found = qo.seesaw(n, seed=seed, restarts=2).setup
    for base in (found, gc.setup_from_family(canonical_family(n))):
        setup = _rotated(base, u, v)
        alice, bob, corr = setup.pauli_form
        psi = setup.state
        assert np.max(np.abs(alice @ corr @ bob.T - oracles.born_table(setup.alice, setup.bob, psi))) <= 1e-12
        # Behavior tables and steered states read the Pauli form; the matrix routes are the oracles.
        table = gc.behavior_from_setup(setup).table
        projectors = qmat.outcome_projectors(setup.alice), qmat.outcome_projectors(setup.bob)
        assert np.max(np.abs(table - oracles.born_table(*projectors, psi).transpose(0, 2, 1, 3))) <= 1e-12
        assert np.max(np.abs(table - oracles.behavior_loop(setup))) <= 1e-12
        loop = oracles.steer_loop(oracles.proj(psi), setup.alice)
        for state, (x, a, parity, rho, probability, degenerate) in zip(gc.steered_states(setup), loop, strict=True):
            assert (state.x, state.a, state.parity, state.degenerate) == (x, a, parity, degenerate)
            assert abs(state.probability - probability) <= 1e-12
            assert np.max(np.abs(state.rho - rho)) <= 1e-12
        via_operator = np.vdot(psi, qo.bell_operator(setup.alice, setup.bob) @ psi).real
        assert abs(qo.setup_bell_value(setup) - via_operator) <= 1e-12
        povm = certify.canonical_povm(setup)
        stats = certify.povm_statistics(setup, povm)
        table, marginals = oracles.povm_statistics_loop(setup, povm)
        assert np.max(np.abs(stats.table - table)) <= 1e-12
        assert np.max(np.abs(stats.marginals - marginals)) <= 1e-12
        assert np.max(np.abs(certify.penalty_probabilities(setup, povm) - np.diagonal(table[:, :, 1]))) <= 1e-12


def _rotation_about(axis, angle):
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * _bloch_observable(axis)


axes = st.tuples(*[unit_range] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@PROPERTY_SETTINGS
@given(st.sampled_from([3, 5, 7, 13]), haar_unitaries, haar_unitaries, axes, st.floats(0.2, np.pi))
def test_negative_controls_still_fail_on_the_pauli_form(n, u, v, axis, angle):
    canonical = gc.setup_from_family(canonical_family(n))
    setup = _rotated(canonical, u, v)
    povm = certify.canonical_povm(setup)
    # A rotated POVM: flagged events fire, or the correlators cannot rebuild it.
    w = _rotation_about(axis, angle)
    rotated = certify.PovmSet(tuple(w @ el @ w.conj().T for el in povm.elements))
    stats = certify.povm_statistics(setup, rotated)
    penalty = float(certify.penalty_probabilities(setup, rotated).sum())
    assert penalty > 1e-9 or certify.reconstruction_deviation(setup, stats, rotated) > 1e-8
    # The optimal observables on perturbed_state(1e-3): the SOS and certify sections fail.
    perturbed = _rotated(gc.QuantumSetup(state=perturbed_state(1e-3), alice=canonical.alice, bob=canonical.bob), u, v)
    assert not all(check.passed for check in report.sos_section(perturbed)[1])
    assert not all(check.passed for check in report.certify_section(perturbed, certify.ALPHA)[2])
    # A non-Hermitian element is refused on the raw stack, although its Pauli
    # coordinates, read from the lower triangle, are those of a valid POVM.
    skew = np.array([[0.0, 1e-6], [0.0, 0.0]])
    elements = (povm.elements[0] + skew, povm.elements[1] - skew) + povm.elements[2:]
    with pytest.raises(ValueError, match="^POVM elements must be 2x2 Hermitian matrices$"):
        certify.PovmSet(elements)
