"""Local and preparation-non-contextual bounds by exact enumeration.

For a deterministic strategy (a, b) with entries in {-1, +1} the Bell value
factors as ``sum_y b_y (s - 2 a_y)`` with ``s = sum_x a_x``, so the best Bob
response is ``b_y = sign(s - 2 a_y)`` and enumeration over Alice's 2^n sign
vectors is exact.  The PNC polytope replaces Alice's responses by vectors in
[-1, 1]^n summing to zero; the objective is linear in them, so the maximum
sits on a vertex.  For odd n each vertex has one zero entry and balanced
signs elsewhere, so the enumeration runs directly over those
n * C(n-1, (n-1)/2) vertices, one zero position (one block) at a time.

Enumeration order is lexicographic with -1 < 0 < +1 and the first maximizer
wins, so results are reproducible across runs and platforms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import gamecore
from .observables import check_n

#: Enumeration is exact but exponential; a verifier has no business beyond this.
MAX_N = 13


@dataclass(frozen=True)
class DeterministicStrategy:
    a: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class PncVertex:
    """Alice vertex of {sum a = 0, |a_x| <= 1} plus a deterministic Bob."""

    a: tuple[int, ...]
    b: tuple[int, ...]


def _bob_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficient of each b_y in the Bell value, ``s - 2 a_y``, for the last axis of a."""
    return a.sum(axis=-1, keepdims=True) - 2 * a


def _best_bob(a) -> tuple[np.ndarray, float]:
    """Optimal deterministic Bob against Alice responses a (entries in [-1, 1]).

    Ties (coefficient exactly zero) resolve to -1, the lexicographically
    smallest choice.
    """
    coeff = _bob_coefficients(np.asarray(a, dtype=float))
    b = np.where(coeff > 0, 1, -1)
    return b, float(np.abs(coeff).sum())


def local_bound(n: int) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over all 2^(2n) deterministic strategies, with witness."""
    check_n(n, MAX_N)
    rows = np.array(list(product((-1, 1), repeat=n)), dtype=int)
    values = np.abs(_bob_coefficients(rows)).sum(axis=1)
    idx = int(np.argmax(values))  # first maximizer = lexicographically smallest a
    a = rows[idx]
    b, value = _best_bob(a)
    return int(round(value)), DeterministicStrategy(tuple(int(v) for v in a), tuple(int(v) for v in b))


def local_bound_closed_form(n: int) -> int:
    """Independent route: maximize over the number of +1 entries in a.

    The value of the best (a, b) depends on a only through s = sum(a):
    ``(n+s)/2 * |s-2| + (n-s)/2 * |s+2|``.
    """
    check_n(n, MAX_N)
    best = 0
    for s in range(-n, n + 1, 2):
        k_plus = (n + s) // 2
        k_minus = (n - s) // 2
        best = max(best, k_plus * abs(s - 2) + k_minus * abs(s + 2))
    return best


def _pnc_blocks(n: int):
    """PNC vertices as one int array per zero position, rows in lexicographic order.

    Block z has its zero at position z and a -1 on each (n-1)/2-subset of
    the other positions (+1 elsewhere).  Subsets of the minus positions in
    ``combinations`` order give the rows in ascending lexicographic order.
    """
    half = (n - 1) // 2
    minus = np.array(list(combinations(range(n - 1), half)))
    signs = np.ones((len(minus), n - 1), dtype=np.int64)
    signs[np.arange(len(minus))[:, None], minus] = -1
    for z in range(n):
        yield np.insert(signs, z, 0, axis=1)


def _pnc_vertices(n: int):
    """Vertices of {a in [-1,1]^n : sum a = 0} in lexicographic order.

    For odd n each vertex has exactly one zero entry and balanced signs on
    the rest; the blocks of ``_pnc_blocks`` are merged into one order.
    """
    yield from heapq.merge(*(map(tuple, block.tolist()) for block in _pnc_blocks(n)))


def pnc_bound(n: int) -> tuple[int, PncVertex]:
    """Exact maximum over PNC vertices with an unconstrained deterministic Bob."""
    check_n(n, MAX_N)
    best_value = None
    best_a = None
    for block in _pnc_blocks(n):
        values = np.abs(_bob_coefficients(block)).sum(axis=1)
        # First maximizer of the block; blocks interleave in the global order.
        first = int(np.argmax(values))
        top, a = int(values[first]), tuple(block[first].tolist())
        if best_value is None or top > best_value or (top == best_value and a < best_a):
            best_value, best_a = top, a
    b, _ = _best_bob(best_a)
    return best_value, PncVertex(best_a, tuple(int(v) for v in b))


def pnc_bound_reduction(n: int) -> int:
    """Closed-form route: with sum a = 0 the value is 2 sum |a_y|, maximal at 2(n-1)."""
    check_n(n, MAX_N)
    return 2 * (n - 1)


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

    The objective is linear in b on Bob's polytope, so for each Alice vertex
    it suffices to enumerate Bob's zero position and balance the signs of
    the remaining entries against the coefficients (``_balanced_values``).
    """
    check_n(n, MAX_N)
    best = 0
    for block in _pnc_blocks(n):
        best = max(best, int(_balanced_values(_bob_coefficients(block)).max()))
    return best


def strategy_behavior(strategy: DeterministicStrategy | PncVertex, n: int) -> gamecore.Behavior:
    """Behavior realized by a (possibly fuzzy) Alice response and deterministic Bob.

    Alice entries in {-1, 0, +1} map to p(a=0|x) = (1 + a_x)/2; Bob entries
    are deterministic signs.
    """
    table = np.zeros((n, n, 2, 2))
    for x in range(n):
        p0 = (1.0 + strategy.a[x]) / 2.0
        pa = (p0, 1.0 - p0)
        for y in range(n):
            b = 0 if strategy.b[y] == 1 else 1
            for a in (0, 1):
                table[x, y, a, b] = pa[a]
    beh = gamecore.Behavior(n=n, table=table)
    beh.validate()
    return beh


@dataclass(frozen=True)
class GapReport:
    """Classical, PNC and quantum-optimal values of the n-input expression."""

    local: int
    pnc: int
    quantum_opt: float

    def __post_init__(self):
        if not self.pnc < self.quantum_opt:
            raise ValueError("PNC bound must lie strictly below the quantum optimum")


def quantum_gap_report(n: int) -> GapReport:
    """(local, pnc, 2n) with the orderings asserted.

    ``pnc < quantum`` holds for every n; ``pnc < local < quantum`` only for
    n = 3 (from n = 5 on, unconstrained classical strategies beat 2n).
    """
    check_n(n, MAX_N)
    local, _ = local_bound(n)
    pnc, _ = pnc_bound(n)
    quantum = 2.0 * n
    report = GapReport(local=local, pnc=pnc, quantum_opt=quantum)
    if n == 3 and not (pnc < local < quantum):
        raise RuntimeError("expected strict ordering pnc < local < quantum at n = 3")
    return report
