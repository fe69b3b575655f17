"""SWAP-circuit self-test, run as a list of stages on the 2x2 state.

A two-qubit state ``psi`` is handled as the 2x2 matrix ``psi2`` with
Alice's index on rows and Bob's on columns, so every local operator acts as
``(M (x) N) psi = M psi2 N^T`` (``qmat.apply_local``).

The swap circuit is a list of stages.  Each stage adds one ancilla per
party, starts both in |0> and leaves one branch operator per party for each
ancilla value: the physical pair goes to ``sum_jk (K_j (x) L_k) psi |j>|k>``
with Alice's branches ``K_j`` and Bob's ``L_k``.  There are two stages:

- (Z, X): a Hadamard sandwich around controlled-Z, then controlled-X,
  leaves ``(I + Z)/2`` and ``X (I - Z)/2``;
- (iYX), present when the operators carry a y direction (five settings): a
  Hadamard sandwich around controlled ``M = i Y X`` leaves ``(I + M)/2``
  and ``(I - M)/2``.

The second stage controls the single unitary ``i Y X`` (phase included):
with the product operator the cross branches cancel against the optimum
relations, which plain controlled-Y gates do not achieve.  The sigma_y
direction is only ever extracted up to the sigma_z dressing of the junk
state, reflecting the complex-conjugation equivalence of the correlations.

Registers are ordered ``(A, B, A', B', A'', B'')``: the physical pair
first, then one ancilla pair per stage, so the three-setting circuit has
four registers and the five-setting one six.  The first stage's pair
(A', B') receives the extracted state; the junk is left on the physical
pair and the later ancillas.  At the optimum each later stage leaves its
ancilla pair correlated, so the predicted junk is built from Alice's
branches alone: ``xi = sum_j (K_j chi) |jj>``.

All targets of a setup run as one stack (``run_targets``).  Each target
names one operator per party from a menu (identity, raw observables, the
swap operators Z, X, Y), so the targets' operators and their reference
actions on the extracted pair are (T, 2, 2) stacks.  The circuit then runs
once on a (T, 2, 2, ...) state stack, every Schmidt split is one batched
SVD, the junk prediction is built once and sigma_z dressed only on the y
targets' rows, and the fidelities and entry errors are computed row-wise,
rounding each row as a single target's computation would.
``run_isometry`` is a stack of one target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import QuantumSetup
from .qmat import EPS, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, apply_local, operator_norm, outcome_projectors, phi_plus

# Largest leftover accepted by the frame-span check and by the Schmidt split of the output.
_SPAN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SelfTestOperators:
    """Normalized swap operators built from a setup's observables."""

    n: int
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]
    z_a: np.ndarray
    x_a: np.ndarray
    z_b: np.ndarray
    x_b: np.ndarray
    y_a: np.ndarray | None = None
    y_b: np.ndarray | None = None
    norms: dict | None = None


def _quartet_combo(items, signs) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for m, s in zip(items, signs):
        out = out + s * m
    return out


def build_selftest_operators(setup: QuantumSetup) -> SelfTestOperators:
    """Swap operators (Z, X-tilde and, from five settings on, Y-tilde).

    Normalization divisors are the state norms ``||X psi||`` so the
    construction only uses quantities available from the correlations.  For
    more than five settings the x/y directions are isolated by signed sums
    over the quartets; a trailing mirrored pair (n = 3 mod 4) carries mixed
    transverse components and is left out of the combinations.
    """
    n = setup.n
    psi = setup.state
    alice, bob = setup.alice, setup.bob

    def normalized(op: np.ndarray, side: str) -> tuple[np.ndarray, float]:
        on_state = apply_local(op, I2, psi) if side == "a" else apply_local(I2, op, psi)
        norm = float(np.linalg.norm(on_state))
        if norm < EPS:
            raise ValueError("swap operator has vanishing norm on the state")
        normed = op / norm
        if operator_norm(normed @ normed - I2) > 1e-6:
            raise ValueError("normalized swap operator does not square to the identity")
        return normed, norm

    z_a = alice[0]
    z_b = -bob[0]
    norms: dict[str, float] = {}

    if n == 3:
        x_a, norms["x_a"] = normalized(alice[2] - alice[1], "a")
        x_b, norms["x_b"] = normalized(bob[1] - bob[2], "b")
        return SelfTestOperators(n, alice, bob, z_a, x_a, z_b, x_b, norms=norms)

    if n < 5 or (n - 1) % 4 not in (0, 2):
        raise ValueError(f"self-test operators are defined for n = 3 or odd n >= 5, got {n}")

    x_a_raw = np.zeros((2, 2), dtype=complex)
    y_a_raw = np.zeros((2, 2), dtype=complex)
    x_b_raw = np.zeros((2, 2), dtype=complex)
    y_b_raw = np.zeros((2, 2), dtype=complex)
    pos = 1
    while pos + 4 <= n:
        quartet_a = alice[pos : pos + 4]
        quartet_b = bob[pos : pos + 4]
        x_a_raw += _quartet_combo(quartet_a, (1, -1, 1, -1))
        y_a_raw += _quartet_combo(quartet_a, (-1, -1, 1, 1))
        x_b_raw += _quartet_combo(quartet_b, (-1, 1, -1, 1))
        y_b_raw += _quartet_combo(quartet_b, (-1, -1, 1, 1))
        pos += 4
    # Any trailing mirrored pair is skipped: its x and y parts do not separate.

    x_a, norms["x_a"] = normalized(x_a_raw, "a")
    y_a, norms["y_a"] = normalized(y_a_raw, "a")
    x_b, norms["x_b"] = normalized(x_b_raw, "b")
    y_b, norms["y_b"] = normalized(y_b_raw, "b")
    return SelfTestOperators(n, alice, bob, z_a, x_a, z_b, x_b, y_a=y_a, y_b=y_b, norms=norms)


def verify_relations(ops: SelfTestOperators, state) -> dict[str, float]:
    """Residual norms of the optimum relations, all zero at the exact optimum."""
    psi = np.asarray(state, dtype=complex).reshape(2, 2)
    res: dict[str, float] = {}

    def rec(name: str, vec: np.ndarray) -> None:
        res[name] = float(np.linalg.norm(vec))

    for x in range(ops.n):
        rec(f"diag_anticorrelation_{x + 1}", apply_local(ops.alice[x], ops.bob[x], psi) + psi)

    rec("z_equal", apply_local(ops.z_a, I2, psi) - apply_local(I2, ops.z_b, psi))
    rec("x_equal", apply_local(ops.x_a, I2, psi) - apply_local(I2, ops.x_b, psi))
    rec("zx_anticommute_a", apply_local(ops.z_a @ ops.x_a + ops.x_a @ ops.z_a, I2, psi))
    rec("zx_anticommute_b", apply_local(I2, ops.z_b @ ops.x_b + ops.x_b @ ops.z_b, psi))

    if ops.n == 3:
        # Pairwise sum relations implied by the vanishing observable sums.
        pairs = [
            ("a1_b2_b3", ops.alice[0], ops.bob[1] + ops.bob[2]),
            ("a2_b1_b3", ops.alice[1], ops.bob[0] + ops.bob[2]),
            ("a3_b1_b2", ops.alice[2], ops.bob[0] + ops.bob[1]),
            ("a2_a3_b1", ops.alice[1] + ops.alice[2], ops.bob[0]),
            ("a1_a3_b2", ops.alice[0] + ops.alice[2], ops.bob[1]),
            ("a2_a1_b3", ops.alice[1] + ops.alice[0], ops.bob[2]),
        ]
        for name, a, b in pairs:
            rec(f"pair_{name}", apply_local(a, b, psi) - psi)
        return res

    assert ops.y_a is not None and ops.y_b is not None
    yx_a = ops.y_a @ ops.x_a
    yx_b = ops.y_b @ ops.x_b
    rec("y_opposite", apply_local(ops.y_a, I2, psi) + apply_local(I2, ops.y_b, psi))
    rec("yx_anticommute_a", apply_local(yx_a + ops.x_a @ ops.y_a, I2, psi))
    rec("yx_anticommute_b", apply_local(I2, yx_b + ops.x_b @ ops.y_b, psi))
    rec("zy_anticommute_a", apply_local(ops.z_a @ ops.y_a + ops.y_a @ ops.z_a, I2, psi))
    rec("zy_anticommute_b", apply_local(I2, ops.z_b @ ops.y_b + ops.y_b @ ops.z_b, psi))
    rec("yx_product_equal", apply_local(yx_a, I2, psi) - apply_local(I2, yx_b, psi))
    rec("yx_yx_minus_one", apply_local(yx_a, yx_b, psi) + psi)
    return res


@dataclass(frozen=True, eq=False)
class SwapCircuit:
    """Stages applied in order over ``nregs = 2 + 2 * len(stages)`` qubit registers.

    Each stage is a pair of (2, 2, 2) stacks, Alice's and Bob's branch
    operators indexed by the value of the stage's ancilla.
    """

    n: int
    nregs: int
    stages: tuple[tuple[np.ndarray, np.ndarray], ...]


def _zx_branches(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I + Z)/2 and X (I - Z)/2: Hadamard, controlled-Z, Hadamard, controlled-X."""
    return np.array([(I2 + z) / 2, x @ (I2 - z) / 2])


def build_circuit(ops: SelfTestOperators) -> SwapCircuit:
    """Stage list of the swap circuit: (Z, X), then (iYX) when the operators carry y."""
    if ops.n not in (3, 5):
        raise ValueError(f"isometry circuits are implemented for n = 3 and n = 5, got {ops.n}")
    stages = [(_zx_branches(ops.z_a, ops.x_a), _zx_branches(ops.z_b, ops.x_b))]
    if ops.y_a is not None:
        stages.append(
            # (I + M)/2 and (I - M)/2: Hadamard, controlled-M, Hadamard.
            (outcome_projectors(1j * ops.y_a @ ops.x_a), outcome_projectors(1j * ops.y_b @ ops.x_b))
        )
    return SwapCircuit(n=ops.n, nregs=2 + 2 * len(stages), stages=tuple(stages))


def _apply_stage(stage: tuple[np.ndarray, np.ndarray], states: np.ndarray) -> np.ndarray:
    """One stage on a (T, 2, 2, ...) stack of state tensors; its ancilla pair becomes the last two axes."""
    alice, bob = stage
    return np.einsum("jac,kbd,tcd...->tab...jk", alice, bob, states)


@dataclass(frozen=True, eq=False)
class IsometryResult:
    target: str
    output: np.ndarray
    expected: np.ndarray
    fidelity: float
    junk: np.ndarray | None
    extracted: np.ndarray | None
    junk_fidelity: float
    extracted_fidelity: float
    factorized: bool
    max_entry_error: float


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise ``|a|``, summed as ``np.linalg.norm`` sums a single vector."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def _fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``|<a|b>|^2 / (|a|^2 |b|^2)``, zero where either row vanishes.

    Each step rounds as it does on one pair of vectors: ``hypot`` is
    ``abs`` of a complex scalar and ``float_power`` is ``**`` of a float
    scalar, so a row equals the fidelity of that pair computed alone.
    """
    norms = np.float_power(_norms(a), 2) * np.float_power(_norms(b), 2)
    overlaps = np.vecdot(a, b)
    moduli = np.float_power(np.hypot(overlaps.real, overlaps.imag), 2)
    return np.where(norms > 0, moduli / np.where(norms > 0, norms, 1.0), 0.0)


def _frame_coefficients(stack: np.ndarray, z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference actions ``cz sigma_z + cx sigma_x`` of a stack of observables in the (z, x) swap frame.

    Also returns each observable's leftover outside the frame, as one
    batched spectral norm, for the span check of the targets that use it.
    """
    cz = np.trace(stack @ z, axis1=1, axis2=2).real[:, None, None] / 2.0
    cx = np.trace(stack @ x, axis1=1, axis2=2).real[:, None, None] / 2.0
    leftover = np.linalg.norm(stack - cz * z - cx * x, 2, axis=(1, 2))
    return cz * SIGMA_Z + cx * SIGMA_X, leftover


def _parse_target(target: str, n: int) -> tuple[int, int]:
    """Positions of the operators Alice and Bob apply for ``target`` in their menus.

    A party's menu (``_menu``) is the identity at 0, its raw observables at
    1..n and the swap operators Z, X, Y at n + 1, n + 2, n + 3.
    """
    if target == "state":
        return 0, 0
    named = {"ZA", "XA", "YA", "ZB", "XB", "YB"}
    if target in named:
        pos = n + 1 + "ZXY".index(target[0])
        return (pos, 0) if target[1] == "A" else (0, pos)
    if target.startswith("A") and "B" in target[1:]:
        xs, ys = target[1:].split("B")
        x, y = int(xs), int(ys)
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"target indices out of range: {target}")
        return x, y
    if target.startswith("A"):
        x = int(target[1:])
        if not 1 <= x <= n:
            raise ValueError(f"target index out of range: {target}")
        return x, 0
    if target.startswith("B"):
        y = int(target[1:])
        if not 1 <= y <= n:
            raise ValueError(f"target index out of range: {target}")
        return 0, y
    raise ValueError(f"unrecognized isometry target: {target}")


# Reference actions of the swap operators Z, X, Y on the extracted pair.
_REFERENCE = np.array([SIGMA_Z, SIGMA_X, SIGMA_Y])


def _menu(observables, z, x, y, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One party's operators and reference actions for the menu positions ``pos``, as (T, 2, 2) stacks.

    A raw observable's reference action is its (z, x) frame part; every
    observable a target uses must lie in that frame.
    """
    stack = np.asarray(observables)
    raw = (pos >= 1) & (pos <= len(stack))
    refs = np.zeros_like(stack)  # only read at the positions of raw observables
    if np.any(raw):
        refs, leftover = _frame_coefficients(stack, z, x)
        if np.any(leftover[pos[raw] - 1] > _SPAN_TOL):
            raise ValueError("observable does not lie in the span of the swap frame")
    named = (z, x) if y is None else (z, x, y)
    ops = np.concatenate([I2[None], stack, named])
    refs = np.concatenate([I2[None], refs, _REFERENCE[: len(named)]])
    return ops[pos], refs[pos]


def run_isometry(setup: QuantumSetup, target: str = "state") -> IsometryResult:
    """Apply the swap circuit and compare with the predicted factorized output.

    ``target`` selects the operator applied to the physical state before the
    circuit: "state" (none), "A<x>", "B<y>", "A<x>B<y>" (three-setting
    circuit) or one of "ZA", "XA", "YA", "ZB", "XB", "YB".  The expected
    vector is the junk factor times the corresponding reference action on
    the ancilla pair; fidelities are phase-invariant.
    """
    ops = build_selftest_operators(setup)
    return run_targets(setup, ops, build_circuit(ops), (target,))[0]


def run_targets(
    setup: QuantumSetup, ops: SelfTestOperators, circuit: SwapCircuit, targets
) -> tuple[IsometryResult, ...]:
    """``run_isometry`` for every target at once, with operators and a circuit already built from ``setup``.

    The targets' operators and reference actions are (T, 2, 2) stacks, so
    the circuit, the expected vectors, the Schmidt splits (one batched SVD)
    and the fidelities each run once on a leading target axis.
    """
    n = setup.n
    targets = tuple(targets)
    if not targets:
        return ()
    pos = np.array([_parse_target(target, n) for target in targets])
    wants_y = np.any(pos == n + 3, axis=1)
    if ops.y_a is None and np.any(wants_y):
        raise ValueError(f"target {targets[np.argmax(wants_y)]} requires the five-setting operators")
    if n != 3 and np.any((pos >= 1) & (pos <= n)):
        raise ValueError("raw observable targets are supported by the three-setting circuit")
    a_op, a_ref = _menu(setup.alice, ops.z_a, ops.x_a, ops.y_a, pos[:, 0])
    b_op, b_ref = _menu(setup.bob, ops.z_b, ops.x_b, ops.y_b, pos[:, 1])

    out = apply_local(a_op, b_op, setup.state)
    for stage in circuit.stages:
        out = _apply_stage(stage, out)
    count = len(targets)
    output = out.reshape(count, -1)

    # Expected output: the junk is chi = (1 + Z_A) psi / sqrt(2) after the
    # first stage; each later stage takes it to sum_j (K_j chi) |jj> with
    # Alice's branches K_j only, so a failed relation on Bob's side lowers
    # the fidelity instead of entering the prediction.  The junk, sigma_z
    # dressed on A'' for the y targets, times the reference action on
    # (A', B') is the expected output.
    anc_expected = apply_local(a_ref, b_ref, phi_plus())
    junk = apply_local(I2 + ops.z_a, I2, setup.state) / np.sqrt(2)
    for alice, _ in circuit.stages[1:]:
        junk = np.einsum("jac,cb...,jk->ab...jk", alice, junk, I2)
    junk_expected = np.repeat(junk[None], count, axis=0)
    if np.any(wants_y):
        junk_expected[wants_y, :, :, 1] *= -1  # sigma_z on A''
    expected = np.einsum("tab...,tjk->tabjk...", junk_expected, anc_expected).reshape(count, -1)
    junk_expected = junk_expected.reshape(count, -1)
    anc_expected = anc_expected.reshape(count, -1)

    exp_norm = _norms(expected)[:, None]
    expected_unit = expected / np.where(exp_norm > 0, exp_norm, 1.0)
    fidelity = _fidelities(output, expected)
    overlap = np.vecdot(expected_unit, output)[:, None]
    size = np.hypot(overlap.real, overlap.imag)
    phase = np.where(size > 0, overlap, 1.0) / np.where(size > 0, size, 1.0)
    max_entry_error = np.max(np.abs(output - phase * expected_unit), axis=1)

    # Schmidt split of each output across (rest | A', B'): rank one within _SPAN_TOL.
    u, s, vh = np.linalg.svd(np.moveaxis(out, (3, 4), (-2, -1)).reshape(count, -1, 4), full_matrices=False)
    factorized = (s[:, 0] > 0) & (s[:, 1] < _SPAN_TOL)
    junk_found = u[:, :, 0] * s[:, :1]
    extracted = vh[:, 0]
    junk_fidelity = np.where(factorized, _fidelities(junk_found, junk_expected), 0.0)
    extracted_fidelity = np.where(factorized, _fidelities(extracted, anc_expected), 0.0)

    rows = zip(
        targets,
        output,
        expected_unit,
        fidelity.tolist(),
        junk_found,
        extracted,
        junk_fidelity.tolist(),
        extracted_fidelity.tolist(),
        factorized.tolist(),
        max_entry_error.tolist(),
    )
    return tuple(
        IsometryResult(target, out_t, exp_t, fid, junk_t if fact else None, ext_t if fact else None, jf, ef, fact, err)
        for target, out_t, exp_t, fid, junk_t, ext_t, jf, ef, fact, err in rows
    )


def perturbed_state(delta: float) -> np.ndarray:
    """Maximally entangled state mixed with |00> by amplitude ``delta``, renormalized."""
    vec = phi_plus() + delta * np.array([1, 0, 0, 0], dtype=complex)
    return vec / np.linalg.norm(vec)
