"""Loop-form oracles for the structured production routes.

These are the direct transcriptions of the definitions: a scan of all 3^n
tuples for the PNC vertices, a per-vertex sort for the symmetric PNC
bound, and the n^2 Kronecker-product sum for the Bell operator.  They are
exponential or quadratic and only meant for small n.
"""

from itertools import product

import numpy as np

from pogame import bounds, gamecore as gc


def pnc_vertices_scan(n):
    """Vertices of {a in [-1,1]^n : sum a = 0} by scanning {-1, 0, 1}^n in order."""
    for a in product((-1, 0, 1), repeat=n):
        if a.count(0) == 1 and sum(a) == 0:
            yield a


def pnc_bound_scan(n):
    """(value, a, b) of the first maximizing vertex with the best Bob response."""
    best_value, best_a, best_b = None, None, None
    for a in pnc_vertices_scan(n):
        b, value = bounds._best_bob(a)
        value = int(round(value))
        if best_value is None or value > best_value:
            best_value, best_a, best_b = value, a, tuple(int(v) for v in b)
    return best_value, best_a, best_b


def balanced_values_sort(coeff_row):
    """Best balanced Bob value for each dropped entry q, by sorting the rest."""
    n = len(coeff_row)
    half = (n - 1) // 2
    out = []
    for q in range(n):
        rest = np.sort(np.delete(coeff_row, q))[::-1]
        out.append(rest[:half].sum() - rest[half:].sum())
    return np.array(out)


def pnc_bound_symmetric_scan(n):
    best = 0.0
    for a in pnc_vertices_scan(n):
        arr = np.asarray(a, dtype=float)
        best = max(best, balanced_values_sort(arr.sum() - 2.0 * arr).max())
    return int(round(best))


def bell_operator_loop(alice, bob):
    """sum_xy alpha_xy A_x (x) B_y with the coefficients of ``bell_expression``."""
    n = len(alice)
    coeff = gc.bell_expression(n).coefficients
    op = np.zeros((4, 4), dtype=complex)
    for x in range(n):
        for y in range(n):
            op += coeff[x, y] * np.kron(alice[x], bob[y])
    return op
