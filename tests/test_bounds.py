from itertools import product

import numpy as np
import pytest

from pogame import bounds, gamecore as gc, report

import oracles


def brute_force_local(n):
    """Oracle: evaluate the expression on every deterministic pair directly."""
    coeff = oracles.bell_coefficients(n)
    best = None
    for a in product((-1, 1), repeat=n):
        for b in product((-1, 1), repeat=n):
            value = sum(coeff[x, y] * a[x] * b[y] for x in range(n) for y in range(n))
            best = value if best is None else max(best, value)
    return best


def test_local_bound_n3():
    value, witness = bounds.local_bound(3)
    assert value == 5
    assert value == brute_force_local(3)
    assert witness.a == (-1, -1, 1)


def test_local_bound_n5_brute_force():
    value, _ = bounds.local_bound(5)
    assert value == brute_force_local(5)
    assert value == 15


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_local_bound_matches_closed_form(n):
    value, _ = bounds.local_bound(n)
    assert value == bounds.local_bound_closed_form(n)


@pytest.mark.parametrize("n,expected", [(3, 4), (5, 8), (7, 12)])
def test_pnc_bound_values(n, expected):
    value, witness = bounds.pnc_bound(n)
    assert value == expected
    assert sum(witness.a) == 0
    assert witness.a.count(0) == 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_pnc_bound_matches_reduction(n):
    assert bounds.pnc_bound(n)[0] == oracles.pnc_bound_reduction(n)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_pnc_bound_symmetric_bob(n):
    # Constraining Bob to the same polytope does not change the bound.
    assert bounds.pnc_bound_symmetric(n) == 2 * n - 2


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_local_dominates_pnc(n):
    assert bounds.local_bound(n)[0] >= bounds.pnc_bound(n)[0]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_witnesses_replay_exactly(n):
    expr = gc.bell_expression(n)
    local_value, local_w = bounds.local_bound(n)
    assert gc.bell_value(expr, bounds.strategy_behavior(local_w, n)) == local_value
    pnc_value, pnc_w = bounds.pnc_bound(n)
    assert gc.bell_value(expr, bounds.strategy_behavior(pnc_w, n)) == pnc_value


@pytest.mark.parametrize("n", [3, 5, 7, 13, 101])
def test_report_replays_agree_with_the_behavior_route(n):
    # The bounds section replays each witness as a^T (J - 2I) b through the
    # row action of J - 2I, with no behavior table; the table route is its oracle.
    section, checks = report.bounds_section(n)
    expr = gc.bell_expression(n)
    for key, value in (("local_witness", section["local_bound"]), ("pnc_witness", section["pnc_bound"])):
        witness = bounds.DeterministicStrategy(tuple(section[key]["a"]), tuple(section[key]["b"]))
        assert gc.bell_value(expr, bounds.strategy_behavior(witness, n)) == value
    assert all(check.passed for check in checks)


def test_report_replay_flags_a_wrong_witness(monkeypatch):
    # Flipping one of Bob's signs moves the value by 2 |s - 2 a_y|, odd times 2.
    value, witness = bounds.local_bound(5)
    flipped = bounds.DeterministicStrategy(witness.a, (-witness.b[0],) + witness.b[1:])
    monkeypatch.setattr(bounds, "local_bound", lambda n: (value, flipped))
    _, checks = report.bounds_section(5)
    failed = [check.name for check in checks if not check.passed]
    assert failed == ["local witness replays its bound"]


def test_report_replay_builds_no_bell_coefficients(monkeypatch):
    # The replay is the row action of J - 2I, not the n x n coefficient matrix.
    def refuse(n):
        raise AssertionError("bounds_section built the n x n Bell coefficients")

    monkeypatch.setattr(gc, "bell_expression", refuse)
    _, checks = report.bounds_section(101)
    assert all(check.passed for check in checks)


def test_witness_behaviors_are_valid():
    for n in (3, 5):
        _, w = bounds.pnc_bound(n)
        beh = bounds.strategy_behavior(w, n)
        beh.validate()
        assert beh.no_signaling_defect() <= 1e-15


def test_vertex_count():
    # n choices of the zero times balanced sign patterns on the rest.
    from math import comb

    for n in (3, 5, 7):
        count = sum(len(block) for block in oracles.pnc_vertex_blocks(n))
        assert count == n * comb(n - 1, (n - 1) // 2)


def test_range_validation():
    # Even n and n < 3 are refused; odd n has no upper cap.
    calls = (bounds.local_bound, bounds.pnc_bound, bounds.pnc_bound_symmetric, bounds.local_bound_closed_form)
    for bad in (2, 4, 16, 1, -3):
        for call in calls:
            with pytest.raises(ValueError, match=f"^n must be odd and >= 3, got {bad}$"):
                call(bad)
    for n in (15, 41):
        assert bounds.local_bound(n)[0] == bounds.local_bound_closed_form(n)
        assert bounds.pnc_bound(n)[0] == bounds.pnc_bound_symmetric(n) == 2 * n - 2


def test_tie_breaking_is_lexicographic():
    # The first maximizer in (-1 < +1) product order must be returned.
    value, witness = bounds.local_bound(3)
    seen = []
    for a in product((-1, 1), repeat=3):
        b, v = bounds._best_bob(a)
        if int(round(v)) == value:
            seen.append(a)
    assert witness.a == seen[0]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pnc_vertices_match_scan_in_order(n):
    assert list(oracles.pnc_vertices(n)) == list(oracles.pnc_vertices_scan(n))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_orbit_bounds_match_enumeration_oracles(n):
    # One representative per orbit gives the value and the first maximizer of the full scans.
    value, witness = bounds.local_bound(n)
    assert (value, witness.a, witness.b) == oracles.local_bound_scan(n)
    value, witness = bounds.pnc_bound(n)
    assert (value, witness.a, witness.b) == oracles.pnc_bound_scan(n)
    assert bounds.pnc_bound_symmetric(n) == oracles.pnc_bound_symmetric_blocks(n)


@pytest.mark.parametrize("n", [3, 5, 13])
def test_strategy_behavior_matches_loop_oracle(n):
    for _, witness in (bounds.local_bound(n), bounds.pnc_bound(n)):
        table = bounds.strategy_behavior(witness, n).table
        want = oracles.strategy_behavior_loop(witness, n)
        assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pnc_bounds_match_scan(n):
    value, witness = bounds.pnc_bound(n)
    assert (value, witness.a, witness.b) == oracles.pnc_bound_scan(n)
    assert bounds.pnc_bound_symmetric(n) == oracles.pnc_bound_symmetric_scan(n)


@pytest.mark.parametrize("n", [11, 13])
def test_pnc_bounds_closed_form_large(n):
    value, witness = bounds.pnc_bound(n)
    assert value == 2 * n - 2
    assert witness.a == (-1,) * ((n - 1) // 2) + (0,) + (1,) * ((n - 1) // 2)
    assert bounds.pnc_bound_symmetric(n) == 2 * n - 2


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_balanced_values_match_sort_oracle(n):
    # Random real rows exercise the prefix-sum formula beyond the {-2, 0, 2}
    # coefficients of the actual vertices; columns follow sorted order.
    rng = np.random.default_rng(60 + n)
    coeff = rng.normal(size=(40, n))
    got = np.sort(bounds._balanced_values(coeff), axis=1)
    want = np.sort([oracles.balanced_values_sort(row) for row in coeff], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
