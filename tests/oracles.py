"""Loop-form oracles for the structured production routes.

These are the direct transcriptions of the definitions: the Kronecker
product of several factors and the partial trace over any subsystems, a
scan of all 2^n sign vectors for the local bound, a scan of all 3^n tuples
for the PNC vertices and the same vertices built one zero position at a
time, a per-vertex sort for the symmetric PNC bound, the per-entry table of
a deterministic strategy's behavior, the n^2 Kronecker-product sum for the
Bell operator, the n^2 correlator loop for the Bell value of a behavior,
the 2n^2 winning-entry sum for the success probability, the 4n^2
``trace(kron(P, Q) @ rho)`` loop for a Born-rule behavior, the
per-branch steering sandwich, the per-element POVM statistics, the
per-entry behavior writers, the gate-by-gate swap circuit as a dense
2^k x 2^k unitary, its predicted output built from the dense junk vectors,
the self-test run one target at a time, and the see-saw run one restart
at a time.  They are exponential or quadratic and only meant for small n.
"""

import heapq
import re
from itertools import combinations, product

import numpy as np

from pogame import bounds, gamecore as gc, quantum_opt as qo, selftest as st
from pogame.qmat import EPS, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_operator, phi_plus, proj


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    if not ops:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


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
    values = np.abs(bounds._bob_coefficients(rows)).sum(axis=1)
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
        int(bounds._balanced_values(bounds._bob_coefficients(block)).max()) for block in pnc_vertex_blocks(n)
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
    ancilla; for five settings then Hadamard, controlled-(i Y X), Hadamard
    on the second.
    """
    nregs = 4 if ops.n == 3 else 6

    def h(reg):
        return _embed(_HADAMARD, reg, nregs)

    def c(control, target, u):
        return _controlled(control, target, u, nregs)

    gates = [h(2), h(3), c(2, 0, ops.z_a), c(3, 1, ops.z_b), h(2), h(3), c(2, 0, ops.x_a), c(3, 1, ops.x_b)]
    if ops.n == 5:
        gates += [h(4), h(5), c(4, 0, 1j * ops.y_a @ ops.x_a), c(5, 1, 1j * ops.y_b @ ops.x_b), h(4), h(5)]
    return gates


def _target_operator(setup, ops, target):
    """4x4 operator a ``run_isometry`` target applies to the physical pair."""
    named = {"ZA": (ops.z_a, I2), "XA": (ops.x_a, I2), "YA": (ops.y_a, I2),
             "ZB": (I2, ops.z_b), "XB": (I2, ops.x_b), "YB": (I2, ops.y_b)}
    if target == "state":
        return np.eye(4, dtype=complex)
    if target in named:
        return np.kron(*named[target])
    x, y = re.fullmatch(r"(?:A(\d+))?(?:B(\d+))?", target).groups()
    a = setup.alice[int(x) - 1] if x else I2
    b = setup.bob[int(y) - 1] if y else I2
    return np.kron(a, b)


def swap_circuit_output(setup, target="state"):
    """Product of the dense gates applied to (target operator) psi (x) |0...0>."""
    ops = st.build_selftest_operators(setup)
    gates = swap_circuit_gates(ops)
    unitary = np.eye(gates[0].shape[0], dtype=complex)
    for gate in gates:
        unitary = gate @ unitary
    ancillas = np.zeros(gates[0].shape[0] // 4)
    ancillas[0] = 1.0
    return unitary @ np.kron(_target_operator(setup, ops, target) @ setup.state, ancillas)


def _reference_action(setup, ops, target):
    """4x4 reference operator a target applies to the extracted pair (A', B')."""
    named = {"ZA": (SIGMA_Z, I2), "XA": (SIGMA_X, I2), "YA": (SIGMA_Y, I2),
             "ZB": (I2, SIGMA_Z), "XB": (I2, SIGMA_X), "YB": (I2, SIGMA_Y)}
    if target == "state":
        return np.eye(4, dtype=complex)
    if target in named:
        return np.kron(*named[target])
    x, y = re.fullmatch(r"(?:A(\d+))?(?:B(\d+))?", target).groups()

    def frame(op, z, xop):
        return np.trace(op @ z).real / 2 * SIGMA_Z + np.trace(op @ xop).real / 2 * SIGMA_X

    a = frame(setup.alice[int(x) - 1], ops.z_a, ops.x_a) if x else I2
    b = frame(setup.bob[int(y) - 1], ops.z_b, ops.x_b) if y else I2
    return np.kron(a, b)


def swap_circuit_expected(setup, target="state"):
    """Predicted circuit output (unit norm) and its junk factor, from dense vectors.

    The junk is chi = (1 + Z_A) psi / sqrt(2) on (A, B); for five settings it
    is xi = (1/2) [(1 + M) chi |00> + (1 - M) chi |11>] on (A, B, A'', B'')
    with Alice's M = i Y X, and sigma_z on A'' for the Y targets.  The
    expected output is junk (x) reference action on (A', B').
    """
    ops = st.build_selftest_operators(setup)
    anc = _reference_action(setup, ops, target) @ phi_plus()
    junk = np.kron(ops.z_a + I2, I2) @ setup.state / np.sqrt(2)
    if ops.n == 5:
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


def _parse_target_loop(target, n):
    if target == "state":
        return "state", ()
    if target in {"ZA", "XA", "YA", "ZB", "XB", "YB"}:
        return "named", (target,)
    if target.startswith("A") and "B" in target[1:]:
        xs, ys = target[1:].split("B")
        x, y = int(xs), int(ys)
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"target indices out of range: {target}")
        return "ab", (x - 1, y - 1)
    if target.startswith("A"):
        x = int(target[1:])
        if not 1 <= x <= n:
            raise ValueError(f"target index out of range: {target}")
        return "a", (x - 1,)
    if target.startswith("B"):
        y = int(target[1:])
        if not 1 <= y <= n:
            raise ValueError(f"target index out of range: {target}")
        return "b", (y - 1,)
    raise ValueError(f"unrecognized isometry target: {target}")


def _fidelity_pair(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a, b)) ** 2 / (na**2 * nb**2))


def _frame_coefficients_single(op, z, x):
    cz = float(np.trace(op @ z).real / 2.0)
    cx = float(np.trace(op @ x).real / 2.0)
    if np.linalg.norm(op - cz * z - cx * x, 2) > 1e-8:
        raise ValueError("observable does not lie in the span of the swap frame")
    return cz, cx


def _run_target_loop(setup, ops, circuit, target):
    """One target: its operators, the circuit stage by stage, one SVD and the fidelities."""
    n = setup.n
    kind, args = _parse_target_loop(target, n)
    reference = {"Z": SIGMA_Z, "X": SIGMA_X, "Y": SIGMA_Y}
    a_op, b_op, a_ref, b_ref = I2, I2, I2, I2
    if kind == "named":
        (name,) = args
        op = getattr(ops, f"{name[0].lower()}_{name[1].lower()}")
        if op is None:
            raise ValueError(f"target {name} requires the five-setting operators")
        if name[1] == "A":
            a_op, a_ref = op, reference[name[0]]
        else:
            b_op, b_ref = op, reference[name[0]]
    elif kind != "state":
        if n != 3:
            raise ValueError("raw observable targets are supported by the three-setting circuit")
        if kind in ("a", "ab"):
            a_op = setup.alice[args[0]]
            cz, cx = _frame_coefficients_single(a_op, ops.z_a, ops.x_a)
            a_ref = cz * SIGMA_Z + cx * SIGMA_X
        if kind in ("b", "ab"):
            b_op = setup.bob[args[-1]]
            dz, dx = _frame_coefficients_single(b_op, ops.z_b, ops.x_b)
            b_ref = dz * SIGMA_Z + dx * SIGMA_X

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


def _random_setup(n, rng, constrained):
    def random_units(count):
        vecs = rng.normal(size=(count, 3))
        return vecs / np.linalg.norm(vecs, axis=1)[:, None]

    alice_dirs = random_units(n)
    if constrained:
        mu = qo._geometric_median(alice_dirs)
        diff = alice_dirs - mu
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist < 1e-12):  # essentially never; resample deterministically
            return _random_setup(n, rng, constrained)
        alice_dirs = diff / dist[:, None]
    alice = qo._obs_from_blochs(alice_dirs)
    bob = qo._obs_from_blochs(random_units(n))
    _, v = np.linalg.eigh(qo.bell_operator(alice, bob))
    return gc.QuantumSetup(state=v[:, -1], alice=tuple(alice), bob=tuple(bob))


def _constrained_alice_update(targets, previous):
    mu = qo._geometric_median(targets)
    diff = targets - mu
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < 1e-12):
        return previous
    return qo._obs_from_blochs(diff / dist[:, None])


def _seesaw_single(n, rng, tol, constrained, init):
    setup = init if init is not None else _random_setup(n, rng, constrained)
    alice = np.array(setup.alice, dtype=complex)
    bob = np.array(setup.bob, dtype=complex)
    state = setup.state.copy()

    def value_of():
        return float(np.vdot(state, qo.bell_operator(alice, bob) @ state).real)

    trace = [value_of()]
    converged = False
    for _ in range(qo._MAX_SWEEPS):
        rho = proj(state)
        bob = qo._matrix_sign(qo._effective_bob(rho, qo._setting_combos(alice)))
        effective = qo._effective_alice(rho, qo._setting_combos(bob))
        if constrained:
            targets = np.einsum("xij,kji->xk", effective, qo._PAULI_STACK).real / 2.0
            before = value_of()
            saved = alice
            alice = _constrained_alice_update(targets, alice)
            if value_of() < before - 1e-12:
                alice = saved
        else:
            alice = qo._matrix_sign(effective)
        w, v = np.linalg.eigh(qo.bell_operator(alice, bob))
        state = v[:, -1]
        trace.append(float(w[-1]))
        if trace[-1] - trace[-2] <= tol:
            converged = True
            break
    final = gc.QuantumSetup(state=state, alice=tuple(alice), bob=tuple(bob))
    return final, trace, converged


def seesaw_loop(n, seed=qo.SEED, tol=qo.TOL, restarts=qo.RESTARTS, constrain_parity=None, init=None):
    """``quantum_opt.seesaw`` with one restart after the other, each a validated setup."""
    constrained = (n > 3) if constrain_parity is None else bool(constrain_parity)
    streams = np.random.SeedSequence(seed).spawn(restarts)
    setups, traces, flags = [], [], []
    for r in range(restarts):
        start = init if (r == 0 and init is not None) else None
        final, trace, converged = _seesaw_single(
            n, np.random.default_rng(streams[r]), tol, constrained, start
        )
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
        constrained=constrained,
        parity_residual=float(np.linalg.norm(sum(setups[best].alice), 2)),
        best_restart=best,
    )
