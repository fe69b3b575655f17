"""Local and preparation-non-contextual bounds, exact for every odd n.

For a deterministic strategy (a, b) with entries in {-1, +1} the Bell value
factors as ``sum_y b_y (s - 2 a_y)`` with ``s = sum_x a_x``, so the best Bob
response is ``b_y = sign(s - 2 a_y)``.  The expression ``J - 2I`` does not
change when both parties' settings are permuted together, so against that
best response the value of Alice's vector depends only on the multiset of
its entries, and one representative per orbit makes an exact scan.

The local bound scans the n + 1 orbits ``(-1)^(n-k) (+1)^k``, k = 0..n.
The PNC polytope replaces Alice's responses by vectors in [-1, 1]^n summing
to zero; the objective is linear in them, so the maximum sits on a vertex.
For odd n every vertex is a permutation of ``(-1)^h 0 (+1)^h`` with
h = (n-1)/2: one orbit, whose representative decides both PNC bounds.

Witnesses are the first maximizers in lexicographic order with -1 < 0 < +1,
so results are reproducible: each representative is the smallest member of
its orbit, and the local representatives come in increasing order.  The
2^n sign scan and the per-vertex scan are kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gamecore
from .gamecore import check_n


@dataclass(frozen=True)
class DeterministicStrategy:
    """Alice's responses ``a`` and Bob's deterministic signs ``b``.

    A local witness has ``a`` in {-1, +1}^n; a PNC witness has a vertex of
    {sum a = 0, |a_x| <= 1}, whose zero entry is Alice's unbiased response.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]


def _best_bob(a) -> tuple[np.ndarray, float]:
    """Optimal deterministic Bob against Alice responses a (entries in [-1, 1]).

    Ties (coefficient exactly zero) resolve to -1, the lexicographically
    smallest choice.
    """
    coeff = gamecore.setting_combinations(np.asarray(a, dtype=float))
    b = np.where(coeff > 0, 1, -1)
    return b, float(np.abs(coeff).sum())


def local_bound(n: int) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over all 2^(2n) deterministic strategies, with witness."""
    check_n(n)
    # Row k is (-1)^(n-k) (+1)^k; the first maximizer is the lexicographically smallest a.
    rows = np.where(np.arange(n) >= n - np.arange(n + 1)[:, None], 1, -1)
    a = rows[int(np.argmax(np.abs(gamecore.setting_combinations(rows)).sum(axis=1)))]
    b, value = _best_bob(a)
    return int(round(value)), DeterministicStrategy(tuple(a.tolist()), tuple(b.tolist()))


def local_bound_closed_form(n: int) -> int:
    """Independent route: maximize over the number of +1 entries in a.

    The value of the best (a, b) depends on a only through s = sum(a):
    ``(n+s)/2 * |s-2| + (n-s)/2 * |s+2|``.
    """
    check_n(n)
    best = 0
    for s in range(-n, n + 1, 2):
        k_plus = (n + s) // 2
        k_minus = (n - s) // 2
        best = max(best, k_plus * abs(s - 2) + k_minus * abs(s + 2))
    return best


def _pnc_representative(n: int) -> np.ndarray:
    """``(-1)^h 0 (+1)^h``: the lexicographically smallest PNC vertex, as a (1, n) row."""
    return np.sign(np.arange(n) - (n - 1) // 2)[None, :]


def pnc_bound(n: int) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over PNC vertices with an unconstrained deterministic Bob."""
    check_n(n)
    a = _pnc_representative(n)[0]
    b, value = _best_bob(a)
    return int(round(value)), DeterministicStrategy(tuple(a.tolist()), tuple(b.tolist()))


def _balanced_values(coeff: np.ndarray) -> np.ndarray:
    """Best balanced Bob value per coefficient row (length 2h+1) and dropped entry.

    With a row sorted ascending as c_0 <= ... <= c_2h, P_k the sum of its
    first k entries and T its total, dropping c_j and putting +1 on the
    larger half of the rest and -1 on the smaller half gives
    ``T - 2 P_(h+1) + c_j`` for j < h and ``T - 2 P_h - c_j`` for j >= h.
    Column j of the result is the value for dropping the j-th smallest entry.
    """
    half = coeff.shape[1] // 2
    c = np.sort(coeff, axis=1)
    prefix = np.cumsum(c, axis=1)
    total = prefix[:, -1:]
    return np.where(
        np.arange(c.shape[1]) < half,
        total - 2 * prefix[:, half : half + 1] + c,
        total - 2 * prefix[:, half - 1 : half] - c,
    )


def pnc_bound_symmetric(n: int) -> int:
    """PNC bound when Bob's responses are constrained to the same polytope.

    The objective is linear in b on Bob's polytope, so it suffices to try
    each zero position for Bob and balance the signs of the remaining
    entries against the coefficients (``_balanced_values``).  Bob's
    polytope is permutation invariant too, so the one PNC orbit still needs
    one representative.
    """
    check_n(n)
    return int(_balanced_values(gamecore.setting_combinations(_pnc_representative(n))).max())


def strategy_behavior(strategy: DeterministicStrategy, n: int) -> gamecore.Behavior:
    """Behavior realized by a (possibly fuzzy) Alice response and deterministic Bob.

    Alice entries in {-1, 0, +1} map to p(a=0|x) = (1 + a_x)/2; Bob entries
    are deterministic signs, b = 0 for +1 and b = 1 for -1.
    """
    p0 = (1.0 + np.asarray(strategy.a, dtype=float)) / 2.0
    alice = np.stack([p0, 1.0 - p0], axis=-1)
    bob_plus = np.asarray(strategy.b) == 1
    bob = np.stack([bob_plus, ~bob_plus], axis=-1).astype(float)
    beh = gamecore.Behavior(n=n, table=alice[:, None, :, None] * bob[None, :, None, :])
    beh.validate()
    return beh
