"""Loop-form oracles for the structured production routes.

These are the direct transcriptions of the definitions: the Kronecker
product of several factors, the partial trace over any subsystems and the
finite-matrix coercion it runs its input through, a scan of all 2^n sign
vectors for the local bound, a scan of all 3^n tuples for the PNC vertices
and the same vertices built one zero position at a time, a per-vertex sort
for the symmetric PNC bound, the per-entry table of a deterministic
strategy's behavior, the n^2 Kronecker-product sum for the Bell operator,
the n^2 correlator loop for the Bell value of a behavior, the 2n^2
winning-entry sum for the success probability, the 4n^2
``trace(kron(P, Q) @ rho)`` loop for a Born-rule behavior, the per-branch
steering sandwich and the state-by-state parity sum, the no-signaling
defect from axis reductions, the per-element POVM statistics, the per-entry
behavior writers, the gate-by-gate swap circuit as a dense 2^k x 2^k
unitary (which also runs the raw observables), its predicted output built
from the dense junk vectors, the self-test run one target at a time, the
frame coordinates of one observable at a time, the see-saw run one restart
at a time, the effective operators of a see-saw sweep as partial traces of
the 4x4 state, the matrix sign by ``eigh``, the geometric median by
Weiszfeld's iteration, (as a negative control) a see-saw without the
sum-zero constraint, and the report renderers as one recursive
``isinstance`` chain.  They are exponential or quadratic and only meant for
small n.

The trine's sigma_z/sigma_x formulas (``reconstruct_gamma``) rebuild the
POVM at n = 3 only, and the pseudo-inverse of the n x n correlators
(``reconstruction_deviation_pinv``) at every n, as the oracles of
``certify.reconstruction_deviation``.  The matrix-route Born table
(``born_table``) is the oracle of the Pauli form's ``e T f^T``, and
``two_branch_mixture`` builds the counterexample that shows a non-rigid
configuration is not self-tested by its correlators.  The observable
families written as sums of Pauli matrices, one observable at a time
(``trine_sum``, ``family_n_sum``, ``family_quartets_sum``), and the
see-saw's start written out (``sum_zero_configuration``) are the oracles of
the Bloch-row generators in ``observables``.
"""

import heapq
import json
import re
from itertools import combinations, product

import numpy as np

from pogame import bounds, gamecore as gc, observables as obs, qmat, quantum_opt as qo, selftest as st
from pogame.qmat import EPS, I2, I_PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_norms, phi_plus


def proj(v) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(arr, arr.conj())


def born_table(alice, bob, psi) -> np.ndarray:
    """``<psi| E_i (x) F_j |psi>`` for every pair of 2x2 effects of two stacks, on the 2x2 form of the state.

    The matrix route of the Pauli form's ``e T f^T``: ``alice`` and ``bob``
    are arrays of shape ``(..., 2, 2)``, the result has shape
    ``alice.shape[:-2] + bob.shape[:-2]``, and with ``psi2`` the 2x2 form
    of the state the entry is ``sum(E_i psi2 * conj(psi2) F_j)``, one
    matrix product of the two flattened stacks.
    """
    a = np.asarray(alice)
    b = np.asarray(bob)
    psi2 = np.reshape(psi, (2, 2))
    left = (a @ psi2).reshape(-1, 4)
    right = (psi2.conj() @ b).reshape(-1, 4)
    return (left @ right.T).real.reshape(a.shape[:-2] + b.shape[:-2])


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    if not ops:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def operator_norm(m) -> float:
    """Spectral norm (largest singular value), by LAPACK's SVD: the oracle of ``qmat.hermitian_norms``."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def ulp_tolerance(scale, ulps=4):
    """``ulps`` units in the last place of ``scale``: how far a closed-form 2x2 spectrum or norm may sit from LAPACK."""
    return ulps * np.finfo(float).eps * scale


def as_operator(m) -> np.ndarray:
    """Coerce to a finite 2-D complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("matrix contains non-finite entries")
    return arr


def partial_trace(rho, keep, dims) -> np.ndarray:
    """Trace out all subsystems except the ones in ``keep``.

    Parameters
    ----------
    rho : array_like
        Square matrix on the full tensor-product space.
    keep : int or sequence of int
        Indices (into ``dims``) of the subsystems to keep, in order.
    dims : sequence of int
        Dimension of each tensor factor; their product must match ``rho``.

    Returns
    -------
    np.ndarray
        Reduced matrix on the kept subsystems; its trace equals ``tr(rho)``.
    """
    rho = as_operator(rho)
    dims = [int(d) for d in dims]
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    total = int(np.prod(dims))
    if rho.shape[0] != total:
        raise ValueError(f"dims {dims} inconsistent with matrix of size {rho.shape[0]}")
    keep_idx = [int(keep)] if np.isscalar(keep) else [int(k) for k in keep]
    if any(k < 0 or k >= len(dims) for k in keep_idx):
        raise ValueError(f"keep indices {keep_idx} out of range for {len(dims)} subsystems")

    nsys = len(dims)
    reshaped = rho.reshape(dims + dims)
    # Row index of factor k is axis k, column index is axis nsys + k.
    keep_dim = int(np.prod([dims[k] for k in keep_idx]))
    row_axes = [i for i in range(nsys)]
    col_axes = [nsys + i if i in keep_idx else i for i in range(nsys)]
    reduced = np.einsum(reshaped, row_axes + col_axes)
    return reduced.reshape(keep_dim, keep_dim)


def local_bound_scan(n):
    """(value, a, b) of the first maximizer over all 2^n sign vectors a, in product order."""
    rows = np.array(list(product((-1, 1), repeat=n)), dtype=int)
    values = np.abs(gc.setting_combinations(rows)).sum(axis=1)
    a = rows[int(np.argmax(values))]
    b, value = bounds._best_bob(a)
    return int(round(value)), tuple(int(v) for v in a), tuple(int(v) for v in b)


def pnc_vertices_scan(n):
    """Vertices of {a in [-1,1]^n : sum a = 0} by scanning {-1, 0, 1}^n in order."""
    for a in product((-1, 0, 1), repeat=n):
        if a.count(0) == 1 and sum(a) == 0:
            yield a


def pnc_vertex_blocks(n):
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


def pnc_vertices(n):
    """The vertices of ``pnc_vertex_blocks`` merged into one lexicographic order."""
    yield from heapq.merge(*(map(tuple, block.tolist()) for block in pnc_vertex_blocks(n)))


def pnc_bound_scan(n):
    """(value, a, b) of the first maximizing vertex with the best Bob response."""
    best_value, best_a, best_b = None, None, None
    for a in pnc_vertices(n):
        b, value = bounds._best_bob(a)
        value = int(round(value))
        if best_value is None or value > best_value:
            best_value, best_a, best_b = value, a, tuple(int(v) for v in b)
    return best_value, best_a, best_b


def pnc_bound_reduction(n):
    """Closed-form route: with sum a = 0 the value is 2 sum |a_y|, maximal at 2(n-1)."""
    obs.check_n(n)
    return 2 * (n - 1)


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


def pnc_bound_symmetric_blocks(n):
    """Symmetric PNC bound over every vertex, one ``_balanced_values`` call per block."""
    return max(
        int(bounds._balanced_values(gc.setting_combinations(block)).max()) for block in pnc_vertex_blocks(n)
    )


def strategy_behavior_loop(strategy, n):
    """table[x, y, a, b] of ``bounds.strategy_behavior``, one entry at a time."""
    table = np.zeros((n, n, 2, 2))
    for x in range(n):
        p0 = (1.0 + strategy.a[x]) / 2.0
        pa = (p0, 1.0 - p0)
        for y in range(n):
            b = 0 if strategy.b[y] == 1 else 1
            for a in (0, 1):
                table[x, y, a, b] = pa[a]
    return table


def bell_operator_loop(alice, bob):
    """sum_xy alpha_xy A_x (x) B_y with the coefficients of ``bell_expression``."""
    n = len(alice)
    coeff = gc.bell_expression(n).coefficients
    op = np.zeros((4, 4), dtype=complex)
    for x in range(n):
        for y in range(n):
            op += coeff[x, y] * np.kron(alice[x], bob[y])
    return op


def bell_value_loop(expr, beh):
    """sum_xy alpha_xy E_xy, one correlator at a time."""
    total = 0.0
    for x in range(expr.n):
        for y in range(expr.n):
            total += expr.coefficients[x, y] * beh.correlator(x, y)
    return float(total)


def success_probability_loop(spec, beh):
    """``gamecore.success_probability_direct`` summed one winning entry at a time."""
    n = spec.n
    total = 0.0
    for x in range(n):
        for y in range(n):
            for a in (0, 1):
                total += beh.table[x, y, a, spec.winning_output(x + 1, y + 1, a)]
    return total / (n * n)


def _projector(observable, outcome):
    return (I2 + (-1) ** outcome * observable) / 2.0


def behavior_loop(setup):
    """table[x, y, a, b] = tr((P_a^x (x) P_b^y) rho), one Kronecker product per entry."""
    n = setup.n
    rho = proj(setup.state)
    table = np.empty((n, n, 2, 2))
    for x, ax in enumerate(setup.alice):
        for a in (0, 1):
            for y, by in enumerate(setup.bob):
                for b in (0, 1):
                    big = tensor(_projector(ax, a), _projector(by, b))
                    table[x, y, a, b] = np.trace(big @ rho).real
    return table


def steer_loop(rho_ab, alice):
    """[(x, a, parity, rho, probability, degenerate)] from one 4x4 sandwich per branch."""
    out = []
    for x0, ax in enumerate(alice):
        x = x0 + 1
        for a in (0, 1):
            big = tensor((I2 + (-1) ** (x + a) * ax) / 2.0, I2)
            unnorm = big @ rho_ab @ big
            p = np.trace(unnorm).real
            if p < EPS:
                out.append((x, a, (x + a) % 2, I2 / 2.0, 0.0, True))
                continue
            out.append((x, a, (x + a) % 2, partial_trace(unnorm, keep=1, dims=[2, 2]) / p, float(p), False))
    return out


def operational_parity_loop(states):
    """Spectral norm of the even-parity minus the odd-parity steered states, added one state at a time."""
    diff = np.zeros((2, 2), dtype=complex)
    for s in states:
        diff += s.rho if s.parity == 0 else -s.rho
    return float(np.linalg.norm(diff, 2))


def no_signaling_defect_reduction(beh):
    """Largest marginal variation, with the marginals as reductions over the outcome axes."""
    t = beh.table
    alice = t.sum(axis=3)  # p(a|x, y)
    bob = t.sum(axis=2)  # p(b|x, y)
    return float(max(np.max(np.abs(alice - alice[:, :1, :])), np.max(np.abs(bob - bob[:1, :, :]))))


def povm_statistics_loop(setup, povm):
    """(table[k, y, b], marginals[k]) with one trace per POVM element and Bob projector."""
    rho = proj(setup.state)
    table = np.zeros((len(povm), setup.n, 2))
    marg = np.zeros(len(povm))
    for k, el in enumerate(povm.elements):
        marg[k] = np.trace(tensor(el, I2) @ rho).real
        for y, by in enumerate(setup.bob):
            for b in (0, 1):
                table[k, y, b] = np.trace(tensor(el, _projector(by, b)) @ rho).real
    return table, marg


def reconstruct_gamma(stats):
    """Coefficients (id, z, y, x) of each POVM element from the statistics, trine frame only.

    Works in Bob's frame for the three-setting game with the canonical
    trine's angles: with correlators ``E_ky = sum_b (-1)^b table[k, y, b]``
    the element k is ``g0 I + g1 sz + g2 sy + g3 sx`` where::

        g0 = P(k)
        g1 = -E_k1
        g2 = -(E_k1 + E_k2 + E_k3)   (identically zero for a frame whose
                                      observables sum to zero; a genuine
                                      sigma_y component is invisible and
                                      shows up as a round-trip deviation)
        g3 = (E_k3 - E_k2)/sqrt(3)
    """
    if stats.table.shape[1] != 3:
        raise ValueError("gamma reconstruction is defined for the three-setting game")
    e = stats.table[:, :, 0] - stats.table[:, :, 1]
    gam = np.zeros((len(stats.table), 4))
    gam[:, 0] = stats.marginals
    gam[:, 1] = -e[:, 0]
    gam[:, 2] = -(e[:, 0] + e[:, 1] + e[:, 2])
    gam[:, 3] = (e[:, 2] - e[:, 1]) / np.sqrt(3)
    return gam


def gamma_elements(gam):
    """POVM elements implied by ``reconstruct_gamma``'s coefficients."""
    return tuple(g[0] * I2 + g[1] * SIGMA_Z + g[2] * SIGMA_Y + g[3] * SIGMA_X for g in gam)


def trine_reconstruction_deviation(stats, povm):
    """Largest spectral-norm gap between the trine-frame rebuild and the actual elements."""
    rebuilt = gamma_elements(reconstruct_gamma(stats))
    return max(np.linalg.norm(r - el, 2) for r, el in zip(rebuilt, povm.elements))


def reconstruction_deviation_pinv(setup, stats, povm):
    """``certify.reconstruction_deviation`` through the n x n correlators ``E = a T b^T`` and their ``pinv``."""
    alice, bob, corr = setup.pauli_form
    e_povm = stats.table[:, :, 0] - stats.table[:, :, 1]
    w = e_povm @ np.linalg.pinv(alice @ corr @ bob.T, rcond=EPS)
    rebuilt = stats.marginals[:, None] * I_PAULI + w @ alice
    return float(np.max(hermitian_norms(rebuilt - povm.coordinates)))


def two_branch_mixture(vectors, tol=1e-9):
    """Two unit sum-zero configurations whose Grams average to the Gram G of ``vectors``.

    ``vectors`` holds n unit Bloch vectors that sum to zero, shape (n, 3).
    With V an orthonormal basis of range(G) (rank r), every Gram of a
    configuration that a mixture may hold is ``V M V^T`` with M symmetric
    r x r and ``v_x^T M v_x = 1`` for every row v_x of V.  A null direction
    N of those n equations (the configuration is not rigid) gives
    ``G+- = V (M_0 +- t N) V^T``, with ``G = V M_0 V^T`` and t half the
    largest step that keeps both PSD.  Each Gram is factored back into an
    (n, 3) configuration, zero-padded when r = 2; both sum to zero because
    range(G) is orthogonal to the all-ones vector.  Raises ``ValueError``
    when the equations have full column rank: the configuration is rigid.
    """
    vectors = np.asarray(vectors, dtype=float)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    r = int(np.count_nonzero(s > tol * s[0]))
    v, m0 = u[:, :r], np.diag(s[:r] ** 2)
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    # Column (i, j) is the coefficient of M_ij (= M_ji) in v_x^T M v_x.
    system = np.stack([v[:, i] * v[:, j] * (1 if i == j else 2) for i, j in pairs], axis=1)
    _, sing, vh = np.linalg.svd(system)
    rank = int(np.count_nonzero(sing > tol * sing[0]))
    if rank == len(pairs):
        raise ValueError(f"configuration is rigid: the {len(vectors)} x {len(pairs)} system has full column rank")
    null = np.zeros((r, r))
    for (i, j), c in zip(pairs, vh[rank]):
        null[i, j] = null[j, i] = c
    # M_0 +- t N stays PSD for |t| <= 1/rho(M_0^-1/2 N M_0^-1/2).
    root = np.diag(1.0 / s[:r])
    t = 0.5 / np.max(np.abs(np.linalg.eigvalsh(root @ null @ root)))
    branches = []
    for m in (m0 + t * null, m0 - t * null):
        w, q = np.linalg.eigh(m)
        config = np.zeros((len(vectors), 3))
        config[:, :r] = v @ q * np.sqrt(w)
        branches.append(config)
    return tuple(branches)


def _fmt(v):
    return format(float(v), ".17g")


def behavior_to_csv_loop(beh):
    """The CSV writer formatting one numpy scalar per entry."""
    lines = ["x,y,a,b,p\n"]
    for x in range(beh.n):
        for y in range(beh.n):
            for a in (0, 1):
                for b in (0, 1):
                    lines.append(f"{x + 1},{y + 1},{a},{b},{_fmt(beh.table[x, y, a, b])}\n")
    return "".join(lines)


def behavior_to_json_loop(beh):
    """The JSON writer formatting one numpy scalar per entry."""
    blocks = []
    for x in range(beh.n):
        for y in range(beh.n):
            block = beh.table[x, y]
            rendered = ", ".join(
                "[" + ", ".join(_fmt(block[a, b]) for b in (0, 1)) + "]" for a in (0, 1)
            )
            blocks.append(f'"{x + 1},{y + 1}": [{rendered}]')
    return '{"n": %d, "table": {%s}}' % (beh.n, ", ".join(blocks))


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)


def _embed(op, reg, nregs):
    factors = [I2] * nregs
    factors[reg] = op
    return tensor(*factors)


def _controlled(control, target, u, nregs):
    """u on ``target`` when ``control`` is in |1>."""
    return _embed(_P0, control, nregs) + _embed(_P1, control, nregs) @ _embed(u, target, nregs)


def swap_circuit_gates(ops):
    """Dense gates of the swap circuit on (A, B, A', B'[, A'', B'']), applied in order.

    Hadamard, controlled-Z, Hadamard, controlled-X on each party's first
    ancilla; when the swap frame has a y direction then Hadamard,
    controlled-(i Y X), Hadamard on the second.
    """
    nregs = 4 if ops.y_a is None else 6

    def h(reg):
        return _embed(_HADAMARD, reg, nregs)

    def c(control, target, u):
        return _controlled(control, target, u, nregs)

    gates = [h(2), h(3), c(2, 0, ops.z_a), c(3, 1, ops.z_b), h(2), h(3), c(2, 0, ops.x_a), c(3, 1, ops.x_b)]
    if ops.y_a is not None:
        gates += [h(4), h(5), c(4, 0, 1j * ops.y_a @ ops.x_a), c(5, 1, 1j * ops.y_b @ ops.x_b), h(4), h(5)]
    return gates


def _target_operator(setup, ops, target):
    """4x4 operator a target applies to the physical pair.

    A target is "state", one of Alice's raw observables or frame operators
    ("A<x>", "ZA", "XA", "YA"), one of Bob's ("B<y>", "ZB", "XB", "YB"), or a
    product of one of each ("A<x>B<y>", "ZAXB").
    """
    if target == "state":
        return np.eye(4, dtype=complex)
    x, frame_a, y, frame_b = re.fullmatch(r"(?:A(\d+)|([ZXY])A)?(?:B(\d+)|([ZXY])B)?", target).groups()
    a = setup.alice[int(x) - 1] if x else getattr(ops, f"{frame_a.lower()}_a") if frame_a else I2
    b = setup.bob[int(y) - 1] if y else getattr(ops, f"{frame_b.lower()}_b") if frame_b else I2
    return np.kron(a, b)


def swap_circuit_outputs(setup, targets):
    """Product of the dense gates applied to (target operator) psi (x) |0...0>, for each target."""
    ops = st.build_selftest_operators(setup)
    gates = swap_circuit_gates(ops)
    unitary = np.eye(gates[0].shape[0], dtype=complex)
    for gate in gates:
        unitary = gate @ unitary
    ancillas = np.zeros(gates[0].shape[0] // 4)
    ancillas[0] = 1.0
    vectors = [_target_operator(setup, ops, target) @ setup.state for target in targets]
    return np.array([unitary @ np.kron(vector, ancillas) for vector in vectors])


def swap_circuit_output(setup, target="state"):
    """``swap_circuit_outputs`` of one target."""
    return swap_circuit_outputs(setup, (target,))[0]


_REFERENCE = {"ZA": (SIGMA_Z, I2), "XA": (SIGMA_X, I2), "YA": (SIGMA_Y, I2),
              "ZB": (I2, SIGMA_Z), "XB": (I2, SIGMA_X), "YB": (I2, SIGMA_Y)}


def _reference_action(target):
    """4x4 reference operator a target applies to the extracted pair (A', B')."""
    return np.eye(4, dtype=complex) if target == "state" else np.kron(*_REFERENCE[target])


def swap_circuit_expected(setup, target="state"):
    """Predicted circuit output (unit norm) and its junk factor, from dense vectors.

    The junk is chi = (1 + Z_A) psi / sqrt(2) on (A, B); with a y direction it
    is xi = (1/2) [(1 + M) chi |00> + (1 - M) chi |11>] on (A, B, A'', B'')
    with Alice's M = i Y X, and sigma_z on A'' for the Y targets.  The
    expected output is junk (x) reference action on (A', B').
    """
    ops = st.build_selftest_operators(setup)
    anc = _reference_action(target) @ phi_plus()
    junk = np.kron(ops.z_a + I2, I2) @ setup.state / np.sqrt(2)
    if ops.y_a is not None:
        m = np.kron(1j * ops.y_a @ ops.x_a, I2)
        e00, e11 = np.eye(4)[0], np.eye(4)[3]
        junk = 0.5 * (np.kron((np.eye(4) + m) @ junk, e00) + np.kron((np.eye(4) - m) @ junk, e11))
        if target in ("YA", "YB"):
            junk = tensor(I2, I2, SIGMA_Z, I2) @ junk
        # (A, B, A'', B'', A', B') -> (A, B, A', B', A'', B'')
        expected = np.kron(junk, anc).reshape((2,) * 6).transpose(0, 1, 4, 5, 2, 3).reshape(-1)
    else:
        expected = np.kron(junk, anc)
    return expected / np.linalg.norm(expected), junk


def _fidelity_pair(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a, b)) ** 2 / (na**2 * nb**2))


def _frame_coefficients_single(op, z, x, y):
    """One observable's coordinates (z, x, y) on a swap frame, y = 0 without a y direction, and the
    Frobenius norm of its leftover ``op - z Z - x X - y Y``."""
    frame = (z, x) if y is None else (z, x, y)
    coords = [float(np.trace(op @ f).real / 2.0) for f in frame]
    leftover = op - sum(c * f for c, f in zip(coords, frame))
    return coords + [0.0] * (3 - len(frame)), float(np.linalg.norm(leftover))


def _run_target_loop(setup, ops, circuit, target):
    """One target: its operators, the circuit stage by stage, one SVD and the fidelities."""
    a_op, b_op, a_ref, b_ref = I2, I2, I2, I2
    if target != "state":
        if target not in _REFERENCE:
            raise ValueError(f"unrecognized isometry target: {target}")
        op = getattr(ops, f"{target[0].lower()}_{target[1].lower()}")
        if op is None:
            raise ValueError(f"target {target} requires a y direction in the swap frame")
        a_ref, b_ref = _REFERENCE[target]
        if target[1] == "A":
            a_op = op
        else:
            b_op = op

    out = a_op @ setup.state.reshape(2, 2) @ b_op.T
    for alice, bob in circuit.stages:
        out = np.einsum("jac,kbd,cd...->ab...jk", alice, bob, out)
    output = out.reshape(-1)

    anc_expected = a_ref @ phi_plus().reshape(2, 2) @ b_ref.T
    junk_expected = (I2 + ops.z_a) @ setup.state.reshape(2, 2) / np.sqrt(2)
    for alice, _ in circuit.stages[1:]:
        junk_expected = np.einsum("jac,cb...,jk->ab...jk", alice, junk_expected, I2)
    if target in ("YA", "YB"):
        junk_expected = np.einsum("il,abl...->abi...", SIGMA_Z, junk_expected)
    expected = np.einsum("ab...,jk->abjk...", junk_expected, anc_expected).reshape(-1)
    junk_expected = junk_expected.reshape(-1)
    anc_expected = anc_expected.reshape(-1)

    exp_norm = np.linalg.norm(expected)
    expected_unit = expected / exp_norm if exp_norm > 0 else expected
    overlap = np.vdot(expected_unit, output)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0

    u, s, vh = np.linalg.svd(np.moveaxis(out, (2, 3), (-2, -1)).reshape(-1, 4))
    factorized = bool(s[0] > 0 and s[1] < 1e-8)
    junk = u[:, 0] * s[0]
    return st.IsometryResult(
        target=target,
        output=output,
        expected=expected_unit,
        fidelity=_fidelity_pair(output, expected),
        junk=junk if factorized else None,
        extracted=vh[0] if factorized else None,
        junk_fidelity=_fidelity_pair(junk, junk_expected) if factorized else 0.0,
        extracted_fidelity=_fidelity_pair(vh[0], anc_expected) if factorized else 0.0,
        factorized=factorized,
        max_entry_error=float(np.max(np.abs(output - phase * expected_unit))),
    )


def run_targets_loop(setup, targets):
    """``selftest.run_targets`` one target at a time, each with its own circuit pass and SVD."""
    ops = st.build_selftest_operators(setup)
    circuit = st.build_circuit(ops)
    return tuple(_run_target_loop(setup, ops, circuit, target) for target in targets)


def assert_stacked_selftest_matches(setup, targets):
    """``selftest.run_targets`` against ``run_targets_loop`` and the dense gate-by-gate circuit.

    Outputs, expected vectors and Schmidt factors agree within 1e-14, the
    fidelities and entry errors within 1e-15.
    """
    ops = st.build_selftest_operators(setup)
    stacked = st.run_targets(setup, ops, st.build_circuit(ops), targets)
    assert [run.target for run in stacked] == list(targets)
    for run, loop in zip(stacked, run_targets_loop(setup, targets)):
        target = run.target
        assert np.max(np.abs(run.output - loop.output)) <= 1e-14, target
        assert np.max(np.abs(run.output - swap_circuit_output(setup, target))) <= 1e-14, target
        assert np.max(np.abs(run.expected - loop.expected)) <= 1e-14, target
        for field in ("fidelity", "junk_fidelity", "extracted_fidelity", "max_entry_error"):
            assert abs(getattr(run, field) - getattr(loop, field)) <= 1e-15, (target, field)
        assert run.factorized == loop.factorized, target
        if run.factorized:
            assert np.max(np.abs(run.junk - loop.junk)) <= 1e-14, target
            assert np.max(np.abs(run.extracted - loop.extracted)) <= 1e-14, target
        else:
            assert run.junk is None and run.extracted is None, target


def _hand_family(alice):
    return gc.QuantumSetup(state=phi_plus(), alice=tuple(alice), bob=tuple(-a.T for a in alice))


def trine_sum():
    """``observables.trine`` as sums of Pauli matrices, one observable at a time."""
    a1 = SIGMA_Z.copy()
    a2 = (np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z
    a3 = -(np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z
    return _hand_family([a1, a2, a3])


def family_n_sum(n, nu=None, beta=None):
    """``observables.family_n`` as sums of Pauli matrices: sigma_z, then two mirrored blocks."""
    nu, beta = obs._split(n, nu, beta)
    z = -1.0 / (n - 1)
    alice = [SIGMA_Z.copy()]
    half = (n - 1) // 2
    for _ in range(half):
        alice.append(nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z)
    for _ in range(half):
        alice.append(-nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z)
    return _hand_family(alice)


def family_quartets_sum(n, nu=None, beta=None):
    """``observables.family_quartets`` as sums of Pauli matrices: sigma_z, quartets, and a pair when n = 3 (mod 4)."""
    nu, beta = obs._split(n, nu, beta)
    z = -1.0 / (n - 1)
    alice = [SIGMA_Z.copy()]
    for _ in range((n - 1) // 4):
        alice.extend(
            [
                nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z,
                -nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z,
                nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z,
                -nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z,
            ]
        )
    if (n - 1) % 4:
        alice.append(nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z)
        alice.append(-nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z)
    return _hand_family(alice)


def sum_zero_configuration(n):
    """``observables.spiral_configuration`` written out: an xy-plane trine, then antipodal spiral pairs."""
    half = np.sqrt(3.0) / 2.0
    trine = np.array([[1.0, 0.0, 0.0], [-0.5, half, 0.0], [-0.5, -half, 0.0]])
    k = np.arange((n - 3) // 2)
    z = 1.0 - (k + 0.5) / max(len(k), 1)
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    pairs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return np.concatenate([trine, pairs, -pairs])


def geometric_median_weiszfeld(points):
    """Fermat-Weber point of each (n, 3) slice by a safeguarded Weiszfeld iteration.

    Up to 500 steps from the centroid.  A slice is done when its step falls
    below 1e-14, or when the iterate is within 1e-13 of a point and the
    Vardi-Zhang test keeps it there (the other points' unit pull is at most
    1 + 1e-12); otherwise it steps 1e-13 off the point along that pull.
    """
    points = np.asarray(points, dtype=float)
    pts = points.reshape((-1,) + points.shape[-2:])
    mu = pts.mean(axis=1)
    for i, slice_pts in enumerate(pts):
        cur = mu[i]
        for _ in range(500):
            diff = slice_pts - cur
            dist = np.linalg.norm(diff, axis=1)
            at_point = dist < 1e-13
            if at_point.any():
                pull = (diff[~at_point] / dist[~at_point, None]).sum(axis=0)
                strength = np.linalg.norm(pull)
                if strength <= 1.0 + 1e-12:
                    break
                cur = cur + (strength - 1.0) / strength * pull * 1e-13
                continue
            new = (slice_pts / dist[:, None]).sum(axis=0) / (1.0 / dist).sum()
            step = np.linalg.norm(new - cur)
            cur = new
            if step < 1e-14:
                break
        mu[i] = cur
    return mu.reshape(points.shape[:-2] + (3,))


def matrix_sign_eigh(m):
    """Sign of each Hermitian matrix of a (..., 2, 2) stack by ``eigh``: every eigenvalue to +-1, 0 to +1."""
    w, v = np.linalg.eigh(m)
    signs = np.where(w >= 0, 1.0, -1.0)
    return (v * signs[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def bloch_observables(bloch):
    """Stack of observables v . sigma for the rows of ``bloch`` (shape (..., 3))."""
    return np.einsum("...k,kij->...ij", np.asarray(bloch, dtype=complex), np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]))


def effective_bob(rho, combos):
    """Tr_A[(C_y (x) I) rho] for each C_y of an (n, 2, 2) stack, as one einsum over the 4x4 rho."""
    return np.einsum("yim,mkil->ykl", combos, rho.reshape(2, 2, 2, 2))


def effective_alice(rho, combos):
    """Tr_B[(I (x) C_x) rho] for each C_x of an (n, 2, 2) stack, as one einsum over the 4x4 rho."""
    return np.einsum("xkm,imjk->xij", combos, rho.reshape(2, 2, 2, 2))


def _random_units(rng, count):
    vecs = rng.normal(size=(count, 3))
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def _random_setup(n, normals):
    """Pauli coordinates of a start: Alice the fixed sum-zero configuration, Bob the directions of (n, 3) normals."""
    bob = normals / np.linalg.norm(normals, axis=1)[:, None]
    return qmat.traceless_coordinates(sum_zero_configuration(n)), qmat.traceless_coordinates(bob)


def _top_eigenpair(alice, bob):
    """Top eigenvalue and eigenvector of the Bell operator of one restart's coordinates, through ``_bell_from_pauli``."""
    w, v = np.linalg.eigh(qo._bell_from_pauli(alice[None], gc.setting_combinations(bob[None], axis=-2)))
    return float(w[0, -1]), v[0, :, -1]


def _constrained_alice_update(targets, previous):
    mu = qo._geometric_median(targets)
    diff = targets - mu
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < 1e-12):
        return previous
    return qmat.traceless_coordinates(diff / dist[:, None])


def _setting_combos(obs):
    """sum_x O_x - 2 O_y for every y, one setting at a time."""
    total = sum(obs)
    return np.array([total - 2.0 * o for o in obs])


def _seesaw_single(n, normals, tol, init):
    """One restart of ``quantum_opt.seesaw`` on its own, through the same Pauli-coordinate steps.

    It starts from ``init`` if given, else from ``_random_setup(n, normals)``.
    Each step runs on a stack of one.  The trace matches the stacked
    see-saw's to roundoff (its matmuls round a stack of r rows differently),
    and a one-restart run's to the bit, so that run stops at the same sweep
    even at tol = 0: the first that gains no more than tol or ends within
    tol of 2n.  Alice's update is kept unless it lowers the Bell value
    of the current state and Bob's observables, evaluated on the 4x4 matrix
    route.
    """
    if init is None:
        alice, bob = _random_setup(n, normals)
        value, state = _top_eigenpair(alice, bob)
    else:
        alice, bob = (qmat.pauli_coordinates(np.array(o, dtype=complex)) for o in (init.alice, init.bob))
        value, state = qo.setup_bell_value(init), np.ravel(init.state)

    def value_of():
        op = qo.bell_operator(qmat.from_pauli(alice), qmat.from_pauli(bob))
        return float(np.vdot(state, op @ state).real)

    trace = [value]
    converged = False
    for _ in range(qo._MAX_SWEEPS):
        corr = qmat.correlations(state[None])
        bob = qo._matrix_sign(gc.setting_combinations(alice[None], axis=-2) @ corr / 2.0)[0]
        effective = (gc.setting_combinations(bob[None], axis=-2) @ np.swapaxes(corr, -1, -2) / 2.0)[0]
        before = value_of()
        saved = alice
        alice = _constrained_alice_update(effective[:, 1:], alice)
        if value_of() < before - 1e-12:
            alice = saved
        value, state = _top_eigenpair(alice, bob)
        trace.append(value)
        if trace[-1] - trace[-2] <= tol or abs(trace[-1] - 2 * n) <= tol:
            converged = True
            break
    final = gc.QuantumSetup(state=state, alice=tuple(qmat.from_pauli(alice)), bob=tuple(qmat.from_pauli(bob)))
    return final, trace, converged


def seesaw_loop(n, seed=qo.SEED, tol=qo.TOL, restarts=qo.RESTARTS, init=None):
    """``quantum_opt.seesaw`` with one restart after the other, each a validated setup.

    Restart r starts from block r of one (restarts, n, 3) draw of normals,
    whose block 0 goes unused when ``init`` fills restart 0.
    """
    blocks = np.random.default_rng(seed).normal(size=(restarts, n, 3))
    setups, traces, flags = [], [], []
    for r in range(restarts):
        start = init if (r == 0 and init is not None) else None
        final, trace, converged = _seesaw_single(n, blocks[r], tol, start)
        setups.append(final)
        traces.append(tuple(trace))
        flags.append(converged)
    values = [trace[-1] for trace in traces]
    best = int(np.argmax(values))
    return qo.SeesawResult(
        n=n,
        value=values[best],
        setup=setups[best],
        restart_values=tuple(values),
        traces=tuple(traces),
        converged=tuple(flags),
        parity_residual=float(np.linalg.norm(sum(setups[best].alice), 2)),
        best_restart=best,
    )


def seesaw_unconstrained(n, seed=qo.SEED, tol=qo.TOL, restarts=qo.RESTARTS):
    """Best value of a see-saw whose Alice update is the plain sign update, with no sum-zero constraint."""
    best = -np.inf
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        alice = bloch_observables(_random_units(rng, n))
        bob = bloch_observables(_random_units(rng, n))
        value = -np.inf
        for _ in range(qo._MAX_SWEEPS):
            w, v = np.linalg.eigh(qo.bell_operator(alice, bob))
            if w[-1] - value <= tol:
                break
            value, rho = w[-1], proj(v[:, -1])
            bob = matrix_sign_eigh(effective_bob(rho, _setting_combos(alice)))
            alice = matrix_sign_eigh(effective_alice(rho, _setting_combos(bob)))
        best = max(best, float(w[-1]))
    return best


def _fmt_float(v):
    if not np.isfinite(v):
        raise ValueError("reports must not contain non-finite numbers")
    return format(float(v), ".17g")


def render_json_recursive(obj, indent=0):
    """``report.render_json`` as one ``isinstance`` chain, recursing with the indent level."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + render_json_recursive(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{inner}"{k}": ' + render_json_recursive(v, indent + 1) for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def flatten_recursive(obj, prefix=""):
    """``report.flatten`` as one ``isinstance`` chain, each level extending its parent's rows."""
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(flatten_recursive(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(flatten_recursive(v, f"{prefix}.{i}"))
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif isinstance(obj, (float, np.floating)):
        rows.append((prefix, _fmt_float(float(obj))))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))
    return rows


def report_csv_recursive(d):
    """``CertificationReport.to_csv`` of the report whose ``to_dict`` is ``d``."""
    return "key,value\n" + "".join(f"{k},{v}\n" for k, v in flatten_recursive(d))


def report_text_recursive(d):
    """``CertificationReport.to_text`` of the report whose ``to_dict`` is ``d``."""
    rows = flatten_recursive(d)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
