import json
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import born_table, proj
from pogame import certify as ct
from pogame import gamecore as gc
from pogame import observables as obs
from pogame import report
from pogame.qmat import I2, SIGMA_X, SIGMA_Z, phi_plus


def uniform_behavior(n):
    """Fully random box: p(a,b|x,y) = 1/4 everywhere."""
    return gc.Behavior(n=n, table=np.full((n, n, 2, 2), 0.25))


def random_setup(rng, n):
    def units(count):
        v = rng.normal(size=(count, 3))
        return v / np.linalg.norm(v, axis=1)[:, None]

    alice = tuple(obs.obs_from_bloch(v) for v in units(n))
    bob = tuple(obs.obs_from_bloch(v) for v in units(n))
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = state / np.linalg.norm(state)
    return gc.QuantumSetup(state=state, alice=alice, bob=bob)


def test_game_spec_winning_rule():
    spec = gc.GameSpec(3)
    assert spec.winning_output(1, 1, 0) == 1
    assert spec.winning_output(1, 1, 1) == 0
    assert spec.winning_output(1, 2, 0) == 0
    assert spec.winning_output(1, 2, 1) == 1
    assert spec.input_probability == pytest.approx(1 / 3)


def test_game_spec_rejects_even_n():
    with pytest.raises(ValueError):
        gc.GameSpec(4)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_quantum_setup_enforces_the_odd_n_rule(n):
    alice = (SIGMA_Z, -SIGMA_Z) * (n // 2) + (SIGMA_Z,) * (n % 2)
    with pytest.raises(ValueError, match=f"^n must be odd and >= 3, got {n}$"):
        gc.QuantumSetup(state=phi_plus(), alice=alice, bob=tuple(-a for a in alice))


def test_an_even_n_setup_reaches_no_certificate_stage():
    # Built, this n = 4 setup would pass every check of these sections, with a
    # shifted Bell value of 8 = 2n, though the game has no n = 4; refused where
    # it is built, it reaches no stage.
    alice = (SIGMA_Z, -SIGMA_Z, SIGMA_X, -SIGMA_X)
    for section in (report.sos_section, report.selftest_section, lambda s: report.certify_section(s, 1.0)):
        with pytest.raises(ValueError, match="^n must be odd and >= 3, got 4$"):
            section(gc.QuantumSetup(state=phi_plus(), alice=alice, bob=tuple(-a for a in alice)))


def test_bell_expression_structure():
    expr = gc.bell_expression(5)
    assert np.all(np.diag(expr.coefficients) == -1)
    assert np.sum(expr.coefficients == -1) == 5


def test_trine_behavior_diagonal_anticorrelation():
    beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    for x in range(3):
        block = beh.table[x, x]
        assert block[0, 1] + block[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert beh.correlator(x, x) == pytest.approx(-1.0, abs=1e-12)


def test_trine_behavior_off_diagonal_correlator():
    beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    for x in range(3):
        for y in range(3):
            if x != y:
                assert beh.correlator(x, y) == pytest.approx(0.5, abs=1e-12)


def test_unbiased_setup_gives_uniform_behavior():
    setup = gc.QuantumSetup(state=phi_plus(), alice=(SIGMA_Z,) * 3, bob=(SIGMA_X,) * 3)
    beh = gc.behavior_from_setup(setup)
    assert np.allclose(beh.table, 0.25, atol=1e-12)


def test_bell_values():
    expr = gc.bell_expression(3)
    trine_beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    assert gc.bell_value(expr, trine_beh) == pytest.approx(6.0, abs=1e-12)
    assert gc.bell_value(expr, uniform_behavior(3)) == pytest.approx(0.0, abs=1e-15)

    expr5 = gc.bell_expression(5)
    beh5 = gc.behavior_from_setup(gc.setup_from_family(obs.family_n(5)))
    assert gc.bell_value(expr5, beh5) == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 41])
def test_bell_value_matches_correlator_loop(n):
    # Random no-signalling boxes: p = (1 + (-1)^a m_x + (-1)^b m'_y + (-1)^(a+b) E_xy) / 4
    # with every term in [-1/3, 1/3], so each entry lies in [0, 1/2].
    rng = np.random.default_rng(n)
    expr = gc.bell_expression(n)
    signs = np.array([1.0, -1.0])
    for _ in range(5):
        m_a, m_b = rng.uniform(-1 / 3, 1 / 3, size=(2, n))
        corr = rng.uniform(-1 / 3, 1 / 3, size=(n, n))
        table = (
            1
            + m_a[:, None, None, None] * signs[:, None]
            + m_b[None, :, None, None] * signs
            + corr[:, :, None, None] * np.outer(signs, signs)
        ) / 4
        # A float array is kept as is; a nested list is stored as the float array it validates.
        assert gc.Behavior(n=n, table=table).table is table
        for given in (table, table.tolist()):
            beh = gc.Behavior(n=n, table=given)
            assert np.array_equal(beh.table, table)
            beh.validate()
            assert abs(gc.bell_value(expr, beh) - oracles.bell_value_loop(expr, beh)) <= 1e-12
            assert beh.correlator(0, 1) == pytest.approx(corr[0, 1], abs=1e-12)
            assert beh.no_signaling_defect() <= 1e-12


def test_bell_value_size_mismatch():
    with pytest.raises(ValueError):
        gc.bell_value(gc.bell_expression(3), uniform_behavior(5))


def test_success_probabilities():
    expr = gc.bell_expression(3)
    trine_beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    assert gc.success_probability(expr, trine_beh) == pytest.approx(5 / 6, abs=1e-12)
    assert gc.success_probability(expr, uniform_behavior(3)) == pytest.approx(0.5, abs=1e-15)
    assert gc.success_probability_at(3, 4.0) == 13 / 18


def test_success_probability_two_routes_agree():
    rng = np.random.default_rng(17)
    spec3 = gc.GameSpec(3)
    expr3 = gc.bell_expression(3)
    for _ in range(25):
        beh = gc.behavior_from_setup(random_setup(rng, 3))
        assert abs(
            gc.success_probability(expr3, beh) - gc.success_probability_direct(spec3, beh)
        ) <= 1e-12
    beh5 = gc.behavior_from_setup(gc.setup_from_family(obs.family_quartets(5)))
    assert abs(
        gc.success_probability(gc.bell_expression(5), beh5)
        - gc.success_probability_direct(gc.GameSpec(5), beh5)
    ) <= 1e-12


@pytest.mark.parametrize("n", range(3, 42, 2))
def test_success_probability_gather_matches_loop_oracle(n):
    rng = np.random.default_rng(300 + n)
    spec = gc.GameSpec(n)

    def gap(beh):
        return abs(gc.success_probability_direct(spec, beh) - oracles.success_probability_loop(spec, beh))

    # Entries on a 2^-20 grid sum exactly in any order, so both routes must
    # give the same bits.
    assert gap(gc.Behavior(n=n, table=rng.integers(0, 2**20, size=(n, n, 2, 2)) / 2**20)) == 0.0
    # On a Born-rule table the loop sums left to right and the gather pairwise.
    # The 2n^2 winning entries total at most n^2, so the two differ by at most
    # 2n^2 + log2(2n^2) rounding units of 2^-53 after the division by n^2.
    assert gap(gc.behavior_from_setup(random_setup(rng, n))) <= 2 * n * n * np.finfo(float).eps


@pytest.mark.parametrize("n", [3, 5, 13])
def test_setting_combinations_is_the_row_action_of_j_minus_2i(n):
    rng = np.random.default_rng(40 + n)
    signs = rng.integers(-1, 2, size=(4, n))
    combos = gc.setting_combinations(signs)
    assert combos.dtype == signs.dtype
    assert np.array_equal(combos, signs @ gc.bell_expression(n).coefficients)
    coords = rng.normal(size=(3, n, 4))
    combos = gc.setting_combinations(coords, axis=-2)
    assert np.array_equal(combos, coords.sum(axis=-2, keepdims=True) - 2.0 * coords)
    for got, stack in zip(combos, coords):
        assert np.max(np.abs(got - oracles._setting_combos(stack))) <= 1e-12


def test_behaviors_are_no_signaling():
    rng = np.random.default_rng(29)
    for n in (3, 5):
        for _ in range(10):
            beh = gc.behavior_from_setup(random_setup(rng, n))
            assert beh.no_signaling_defect() <= 1e-12


def _haar(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _assert_steering_matches_oracle(rho, alice):
    got = gc.steer(rho, alice)
    want = oracles.steer_loop(rho, alice)
    assert len(got) == len(want) == 2 * len(alice)
    for s, (x, a, parity, w_rho, w_p, w_degenerate) in zip(got, want):
        assert (s.x, s.a, s.parity, s.degenerate) == (x, a, parity, w_degenerate)
        assert abs(s.probability - w_p) <= 1e-12
        assert np.max(np.abs(s.rho - w_rho)) <= 1e-12
    assert abs(gc.check_operational_parity(got) - oracles.operational_parity_loop(got)) <= 1e-12


def _assert_povm_routes_match_oracle(setup, povm):
    stats = ct.povm_statistics(setup, povm)
    table, marg = oracles.povm_statistics_loop(setup, povm)
    assert stats.table.shape == table.shape and stats.marginals.shape == marg.shape
    assert np.max(np.abs(stats.table - table)) <= 1e-12
    assert np.max(np.abs(stats.marginals - marg)) <= 1e-12
    penalties = ct.penalty_probabilities(setup, povm)
    assert np.max(np.abs(penalties - table[np.arange(setup.n), np.arange(setup.n), 1])) <= 1e-12
    probs = ct.randomness_report(setup, povm).outcome_probabilities
    assert np.max(np.abs(np.array(probs) - marg)) <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 21])
def test_born_routes_match_loop_oracles(n):
    rng = np.random.default_rng(100 + n)
    canonical = gc.setup_from_family(obs.canonical_family(n))
    randoms = [random_setup(rng, n) for _ in range(3)]
    # |00> with sigma_z first: the -1 branch of A_1 never fires.
    product_state = gc.QuantumSetup(
        state=np.array([1, 0, 0, 0], dtype=complex),
        alice=(SIGMA_Z,) + randoms[0].alice[1:],
        bob=randoms[0].bob,
    )
    for setup in [canonical, product_state] + randoms:
        table = gc.behavior_from_setup(setup).table
        assert np.max(np.abs(table - oracles.behavior_loop(setup))) <= 1e-12
        _assert_steering_matches_oracle(proj(setup.state), setup.alice)
    assert any(s.degenerate for s in gc.steered_states(product_state))

    # Mixed shared states: a random two-state mixture and the maximally mixed state.
    w = rng.uniform(0.2, 0.8)
    mixture = w * proj(randoms[1].state) + (1 - w) * proj(randoms[2].state)
    for rho in (mixture, np.eye(4, dtype=complex) / 4):
        _assert_steering_matches_oracle(rho, randoms[0].alice)

    # The canonical POVM on its own setup, and rotated by a random unitary on random setups.
    povm = ct.canonical_povm(obs.canonical_family(n))
    _assert_povm_routes_match_oracle(canonical, povm)
    for setup in randoms:
        u = _haar(rng)
        rotated = ct.PovmSet(tuple(u @ el @ u.conj().T for el in povm.elements))
        _assert_povm_routes_match_oracle(setup, rotated)


@pytest.mark.parametrize("n", [3, 5, 21])
def test_behavior_writers_match_per_entry_oracle(n):
    rng = np.random.default_rng(200 + n)
    specials = [0.0, -0.0, 1.0, 0.1, 1 / 3, 1 - 2**-53, 1e-300, 5e-324, 0.25]
    for table in (
        rng.random((n, n, 2, 2)),
        rng.choice(specials, size=(n, n, 2, 2)),
        rng.integers(0, 2, size=(n, n, 2, 2)),
    ):
        beh = gc.Behavior(n=n, table=table)
        assert gc.behavior_to_csv(beh) == oracles.behavior_to_csv_loop(beh)
        assert gc.behavior_to_json(beh) == oracles.behavior_to_json_loop(beh)


def test_steered_states_trine_pure_and_complete():
    setup = gc.setup_from_family(obs.trine())
    states = gc.steered_states(setup)
    assert len(states) == 6
    by_x = {}
    for s in states:
        assert np.trace(s.rho @ s.rho).real == pytest.approx(1.0, abs=1e-12)
        assert s.probability == pytest.approx(0.5, abs=1e-12)
        by_x.setdefault(s.x, []).append(s.rho)
    for x, pair in by_x.items():
        assert np.allclose(pair[0] + pair[1], I2, atol=1e-12)


def test_steered_state_label_convention():
    # Label (x=1, a=1) has even parity and steers with the +1 projector.
    setup = gc.setup_from_family(obs.trine())
    states = {(s.x, s.a): s for s in gc.steered_states(setup)}
    assert np.allclose(states[(1, 1)].rho, (I2 + SIGMA_Z) / 2, atol=1e-12)
    assert states[(1, 1)].parity == 0


def test_steer_maximally_mixed_shared_state():
    states = gc.steer(np.eye(4, dtype=complex) / 4, obs.trine().alice)
    for s in states:
        assert np.allclose(s.rho, I2 / 2, atol=1e-12)


def test_steer_zero_probability_branch_flagged():
    # Product state |00>: the -1 branch of sigma_z on A never fires.
    state = np.array([1, 0, 0, 0], dtype=complex)
    states = {(s.x, s.a): s for s in gc.steer(proj(state), (SIGMA_Z,))}
    missing = states[(1, 0)]  # sign (-1)^(1+0) = -1
    assert missing.degenerate
    assert np.allclose(missing.rho, I2 / 2)
    assert missing.probability == 0.0


def test_operational_parity_trine_and_five():
    for fam in (obs.trine(), obs.family_quartets(5)):
        setup = gc.setup_from_family(fam)
        assert gc.check_operational_parity(gc.steered_states(setup)) <= 1e-12


def test_operational_parity_detects_perturbation():
    fam = obs.trine()
    angle = 0.1
    rot = np.array(
        [[np.cos(angle / 2), -np.sin(angle / 2)], [np.sin(angle / 2), np.cos(angle / 2)]],
        dtype=complex,
    )
    alice = (rot @ fam.alice[0] @ rot.conj().T,) + fam.alice[1:]
    setup = gc.QuantumSetup(state=phi_plus(), alice=alice, bob=fam.bob)
    assert gc.check_operational_parity(gc.steered_states(setup)) > 1e-3


def test_operational_parity_equals_observable_sum_norm():
    # On the maximally entangled state the two diagnostics coincide.
    rng = np.random.default_rng(31)
    for _ in range(10):
        vecs = rng.normal(size=(3, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        alice = tuple(obs.obs_from_bloch(v) for v in vecs)
        setup = gc.QuantumSetup(state=phi_plus(), alice=alice, bob=alice)
        parity = gc.check_operational_parity(gc.steered_states(setup))
        sum_norm = np.linalg.norm(sum(alice), 2)
        assert parity == pytest.approx(sum_norm, abs=1e-10)


def test_behavior_validation_rejects_signaling():
    # Alice's marginal at x=1 depends on Bob's input: p(a=0|x,y=1) = 0.8 vs 0.5.
    table = np.full((3, 3, 2, 2), 0.25)
    table[0, 0] = [[0.6, 0.2], [0.1, 0.1]]
    with pytest.raises(ValueError):
        gc.Behavior(n=3, table=table).validate()


def test_csv_round_trip_bit_exact():
    beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    text = gc.behavior_to_csv(beh)
    again = gc.behavior_from_csv(text)
    assert again.n == beh.n
    assert np.array_equal(again.table, beh.table)
    assert gc.behavior_to_csv(again) == text


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(37)
    beh = gc.behavior_from_setup(random_setup(rng, 5))
    text = gc.behavior_to_json(beh)
    again = gc.behavior_from_json(text)
    assert np.array_equal(again.table, beh.table)
    assert gc.behavior_to_json(again) == text


def test_csv_header_enforced():
    with pytest.raises(ValueError):
        gc.behavior_from_csv("a,b,c\n1,1,0")


def test_csv_rejects_duplicated_and_missing_rows():
    # One row duplicated and one dropped keeps the row count at 4 n^2.
    beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    lines = gc.behavior_to_csv(beh).splitlines()
    header, rows = lines[0], lines[1:]
    assert rows[5].startswith("1,2,0,1,")
    tampered = [header] + rows[:5] + [rows[4]] + rows[6:]
    with pytest.raises(ValueError, match="duplicate row 1,2,0,0"):
        gc.behavior_from_csv("\n".join(tampered))
    # A dropped row alone is named as missing.
    with pytest.raises(ValueError, match="missing row 1,2,0,1"):
        gc.behavior_from_csv("\n".join([header] + rows[:5] + rows[6:]))


def test_csv_rejects_row_with_wrong_field_count():
    # A deterministic box writes its entries as "0" and "1", so a short row
    # followed by a long one would still split into whole 5-field records.
    table = np.zeros((3, 3, 2, 2))
    table[..., 0, 0] = 1.0
    lines = gc.behavior_to_csv(gc.Behavior(n=3, table=table)).splitlines()
    assert lines[1:3] == ["1,1,0,0,1", "1,1,0,1,0"]
    shifted = [lines[0], "1,1,0,0", "1,1,0,1,0,1"] + lines[3:]
    with pytest.raises(ValueError, match=r"CSV row '1,1,0,0' must have the 5 fields x,y,a,b,p, got 4"):
        gc.behavior_from_csv("\n".join(shifted))
    with pytest.raises(ValueError, match=r"CSV row '1,1,0,1,0,7' .* got 6"):
        gc.behavior_from_csv("\n".join(lines[:2] + ["1,1,0,1,0,7"] + lines[3:]))
    with pytest.raises(ValueError, match="header"):
        gc.behavior_from_csv("\n\n")


def _trine_csv_lines():
    return gc.behavior_to_csv(gc.behavior_from_setup(gc.setup_from_family(obs.trine()))).splitlines()


# With DeprecationWarning at the library's default filter, so that the reader,
# not this suite's error::DeprecationWarning rule, must reject a float key.
@pytest.mark.filterwarnings("default::DeprecationWarning")
@pytest.mark.parametrize(
    "edit, match",
    [
        # Each edit keeps the row's numbers, so a reader that cut a comment,
        # stripped quotes or truncated a float key would accept the table.
        (lambda row: row + "#x", "#x'"),
        (lambda row: '"1"' + row[1:], "'\"1\"'"),
        (lambda row: "1.0" + row[1:], "'1.0'"),
        (lambda row: "   ", r"CSV row '   ' must have the 5 fields x,y,a,b,p, got 1"),
    ],
    ids=["comment", "quoted", "float-key", "whitespace"],
)
def test_csv_rejects_rows_the_writer_never_writes(edit, match):
    lines = _trine_csv_lines()
    assert lines[1].startswith("1,1,0,0,")
    with pytest.raises(ValueError, match=match):
        gc.behavior_from_csv("\n".join(lines[:1] + [edit(lines[1])] + lines[2:]))


def test_csv_accepts_blank_lines_and_crlf():
    lines = _trine_csv_lines()
    want = gc.behavior_from_csv("\n".join(lines)).table
    spaced = "\r\n".join(lines[:4] + ["", ""] + lines[4:]) + "\r\n\r\n"
    assert np.array_equal(gc.behavior_from_csv(spaced).table, want)


def test_csv_rejects_out_of_range_index():
    text = gc.behavior_to_csv(gc.behavior_from_setup(gc.setup_from_family(obs.trine())))
    with pytest.raises(ValueError, match="out of range"):
        gc.behavior_from_csv(text.replace("\n1,1,0,0,", "\n0,1,0,0,", 1))


INT64_MIN = "-9223372036854775808"


@pytest.mark.parametrize("x", ["0", INT64_MIN])
def test_csv_without_a_setting_of_one_or_more_names_no_n(x):
    # n is read from the largest setting x, so here there is none to name.
    with pytest.raises(ValueError, match=f"^row {x},1,0,0 is out of range: settings start at 1$"):
        gc.behavior_from_csv(f"x,y,a,b,p\n{x},1,0,0,1")


def test_readers_name_an_int64_min_setting_as_given():
    # The range is checked before the 1-based setting is made 0-based, which would wrap around int64.
    beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
    with pytest.raises(ValueError, match=f"^row {INT64_MIN},1,0,0 is out of range for n=3$"):
        gc.behavior_from_csv(gc.behavior_to_csv(beh).replace("\n1,1,0,0,", f"\n{INT64_MIN},1,0,0,", 1))
    with pytest.raises(ValueError, match=f'^block "1,{INT64_MIN}" is out of range for n=3$'):
        gc.behavior_from_json(gc.behavior_to_json(beh).replace('"1,1"', f'"1,{INT64_MIN}"', 1))


@pytest.mark.parametrize(
    "block, bad",
    [('[["0.25", 0.25], [0.25, "2.5e-1"]]', '"0.25"'), ("[[true, false], [false, false]]", "true"), ("[[0.5, 0.5], [null, 0]]", "null")],
    ids=["strings", "booleans", "null"],
)
def test_json_entries_must_be_json_numbers(block, bad):
    # The float conversion alone reads these as four 0.25s, as [1, 0, 0, 0] and as nan.
    with pytest.raises(ValueError, match=f"^table entries must be JSON numbers, got {re.escape(bad)}$"):
        gc.behavior_from_json(f'{{"n": 1, "table": {{"1,1": {block}}}}}')


def test_json_rejects_missing_block():
    text = gc.behavior_to_json(gc.behavior_from_setup(gc.setup_from_family(obs.trine())))
    doc = json.loads(text)
    del doc["table"]["2,3"]
    with pytest.raises(ValueError, match='missing block "2,3"'):
        gc.behavior_from_json(json.dumps(doc))


def test_json_rejects_repeated_block_key():
    text = gc.behavior_to_json(gc.behavior_from_setup(gc.setup_from_family(obs.trine())))
    with pytest.raises(ValueError, match="duplicate key '1,1'"):
        gc.behavior_from_json(text.replace('"1,2"', '"1,1"'))


def test_behavior_validation_rejects_nan():
    table = np.full((3, 3, 2, 2), 0.25)
    table[1, 2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gc.Behavior(n=3, table=table).validate()


@pytest.mark.filterwarnings("default::DeprecationWarning")
def test_json_rejects_keys_the_writer_never_writes():
    text = gc.behavior_to_json(gc.behavior_from_setup(gc.setup_from_family(obs.trine())))
    # "1,1,1" then "2" would join and split into the valid pairs 1,1 and 1,2.
    with pytest.raises(ValueError, match=r"JSON key '1,1,1' must have the 2 fields x,y, got 3"):
        gc.behavior_from_json(text.replace('"1,1"', '"1,1,1"').replace('"1,2"', '"2"'))
    with pytest.raises(ValueError, match="'1.0'"):
        gc.behavior_from_json(text.replace('"1,1"', '"1.0,1"'))
    # "01,1" is a key of its own to the JSON parser but the entry 1,1 to the table.
    with pytest.raises(ValueError, match='duplicate block "1,1"'):
        gc.behavior_from_json(text.replace('"1,2"', '"01,1"'))


def test_json_rejects_block_that_is_not_2x2():
    doc = json.loads(gc.behavior_to_json(gc.behavior_from_setup(gc.setup_from_family(obs.trine()))))
    doc["table"] = {key: sum(block, []) for key, block in doc["table"].items()}  # flat [p00, p01, p10, p11]
    # An object for a block, and a ragged block.
    texts = [json.dumps(doc), '{"n": 1, "table": {"1,1": {}}}', '{"n": 1, "table": {"1,1": [[[1], 0], [0, 1]]}}']
    for text in texts:
        with pytest.raises(ValueError, match="^every table block must be a 2x2 array$"):
            gc.behavior_from_json(text)


def _peak_bytes(call):
    """Peak traced allocation while ``call`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "read, text, match",
    [
        # Sized from its largest index, a 2001-setting table would take over 100 MB.
        (gc.behavior_from_csv, "x,y,a,b,p\n2001,1,0,0,1", "missing row 1,1,0,0"),
        (gc.behavior_from_csv, "x,y,a,b,p\n9000000000000000000,1,0,0,1", "missing row 1,1,0,0"),
        (gc.behavior_from_csv, "x,y,a,b,p\n9223372036854775807,1,1,1,1", "missing row 1,1,0,0"),
        (gc.behavior_from_json, '{"n": 2001, "table": {"1,1": [[1, 0], [0, 0]]}}', 'missing block "1,2"'),
        (gc.behavior_from_json, '{"n": 10000000000000000000000, "table": {"2,1": [[1, 0], [0, 0]]}}', 'missing block "1,1"'),
    ],
    ids=["csv-2001", "csv-int64-max", "csv-int64-max-exact", "json-2001", "json-beyond-int64"],
)
def test_short_input_is_rejected_in_memory_of_its_own_size(read, text, match):
    def call():
        with pytest.raises(ValueError, match=f"^{match}: every entry must appear exactly once$"):
            read(text)

    assert _peak_bytes(call) < 200_000


def test_csv_with_one_row_too_many_names_the_duplicate():
    lines = _trine_csv_lines()
    assert lines[7].startswith("1,2,1,0,")
    with pytest.raises(ValueError, match="duplicate row 1,2,1,0"):
        gc.behavior_from_csv("\n".join(lines + [lines[7]]))
    with pytest.raises(ValueError, match="duplicate row 3,3,1,1"):
        gc.behavior_from_csv("\n".join(lines + [lines[-1]]))


@pytest.mark.parametrize("n", ["3.9", '"3"', "true", "3.0", "0", "-3", "null"])
def test_json_n_must_be_a_positive_json_integer(n):
    text = gc.behavior_to_json(gc.behavior_from_setup(gc.setup_from_family(obs.trine())))
    assert text.startswith('{"n": 3, ')
    with pytest.raises(ValueError, match=f'^"n" must be a positive JSON integer, got {re.escape(n)}$'):
        gc.behavior_from_json(text.replace('"n": 3', f'"n": {n}', 1))


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null", "{}", '{"n": 3}', '{"table": {}}', '{"n": 3, "table": []}'])
def test_json_document_must_be_an_object_with_n_and_a_table_object(text):
    with pytest.raises(ValueError, match='^behavior JSON must be an object with "n" and a "table" object$'):
        gc.behavior_from_json(text)


def test_pauli_form_is_computed_once_and_read_only():
    setup = gc.setup_from_family(obs.trine())
    alice, bob, corr = setup.pauli_form
    assert setup.pauli_form[0] is alice
    assert alice.shape == bob.shape == (3, 4) and corr.shape == (4, 4)
    for arr in (alice, bob, corr):
        assert not arr.flags.writeable
    assert np.max(np.abs(alice @ corr @ bob.T - born_table(setup.alice, setup.bob, setup.state))) <= 1e-15
