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


def _apply_stage(stage: tuple[np.ndarray, np.ndarray], state: np.ndarray) -> np.ndarray:
    """One stage on a (2, 2, ...) state tensor; its ancilla pair becomes the last two axes."""
    alice, bob = stage
    return np.einsum("jac,kbd,cd...->ab...jk", alice, bob, state)


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


def _schmidt_split(state: np.ndarray):
    """Rank-1 factorization of a register tensor across (rest | A', B'), if it exists."""
    mat = np.moveaxis(state, (2, 3), (-2, -1)).reshape(-1, 4)
    u, s, vh = np.linalg.svd(mat)
    factorized = bool(s[0] > 0 and (len(s) == 1 or s[1] < _SPAN_TOL))
    junk = u[:, 0] * s[0]
    extracted = vh[0]
    return factorized, junk, extracted


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a, b)) ** 2 / (na**2 * nb**2))


def _frame_coefficients(op: np.ndarray, z: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Coefficients of ``op`` in the (z, x) swap frame, with a span check."""
    cz = float(np.trace(op @ z).real / 2.0)
    cx = float(np.trace(op @ x).real / 2.0)
    if operator_norm(op - cz * z - cx * x) > _SPAN_TOL:
        raise ValueError("observable does not lie in the span of the swap frame")
    return cz, cx


def _parse_target(target: str, n: int) -> tuple[str, tuple]:
    if target == "state":
        return "state", ()
    named = {"ZA", "XA", "YA", "ZB", "XB", "YB"}
    if target in named:
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


_REFERENCE = {"Z": SIGMA_Z, "X": SIGMA_X, "Y": SIGMA_Y}


def run_isometry(setup: QuantumSetup, target: str = "state") -> IsometryResult:
    """Apply the swap circuit and compare with the predicted factorized output.

    ``target`` selects the operator applied to the physical state before the
    circuit: "state" (none), "A<x>", "B<y>", "A<x>B<y>" (three-setting
    circuit) or one of "ZA", "XA", "YA", "ZB", "XB", "YB".  The expected
    vector is the junk factor times the corresponding reference action on
    the ancilla pair; fidelities are phase-invariant.
    """
    ops = build_selftest_operators(setup)
    return _run_target(setup, ops, build_circuit(ops), target)


def _run_target(
    setup: QuantumSetup, ops: SelfTestOperators, circuit: SwapCircuit, target: str
) -> IsometryResult:
    """``run_isometry`` for operators and a circuit already built from ``setup``.

    Lets a caller that runs many targets on one setup build both once.
    """
    n = setup.n
    kind, args = _parse_target(target, n)

    # Local operators applied before the circuit, and their reference action
    # on the extracted pair.
    a_op, b_op, a_ref, b_ref = I2, I2, I2, I2
    if kind == "named":
        (name,) = args
        op = getattr(ops, f"{name[0].lower()}_{name[1].lower()}")  # "ZA" -> ops.z_a
        if op is None:
            raise ValueError(f"target {name} requires the five-setting operators")
        if name[1] == "A":
            a_op, a_ref = op, _REFERENCE[name[0]]
        else:
            b_op, b_ref = op, _REFERENCE[name[0]]
    elif kind != "state":
        if n != 3:
            raise ValueError("raw observable targets are supported by the three-setting circuit")
        if kind in ("a", "ab"):
            a_op = setup.alice[args[0]]
            cz, cx = _frame_coefficients(a_op, ops.z_a, ops.x_a)
            a_ref = cz * SIGMA_Z + cx * SIGMA_X
        if kind in ("b", "ab"):
            b_op = setup.bob[args[-1]]
            dz, dx = _frame_coefficients(b_op, ops.z_b, ops.x_b)
            b_ref = dz * SIGMA_Z + dx * SIGMA_X

    out = apply_local(a_op, b_op, setup.state)
    for stage in circuit.stages:
        out = _apply_stage(stage, out)
    output = out.reshape(-1)

    # Expected output: the junk is chi = (1 + Z_A) psi / sqrt(2) after the
    # first stage; each later stage takes it to sum_j (K_j chi) |jj> with
    # Alice's branches K_j only, so a failed relation on Bob's side lowers
    # the fidelity instead of entering the prediction.  The junk times the
    # reference action on (A', B') is the expected output.
    anc_expected = apply_local(a_ref, b_ref, phi_plus())
    junk_expected = apply_local(I2 + ops.z_a, I2, setup.state) / np.sqrt(2)
    for alice, _ in circuit.stages[1:]:
        junk_expected = np.einsum("jac,cb...,jk->ab...jk", alice, junk_expected, I2)
    if target in ("YA", "YB"):
        junk_expected = np.einsum("il,abl...->abi...", SIGMA_Z, junk_expected)  # sigma_z on A''
    expected = np.einsum("ab...,jk->abjk...", junk_expected, anc_expected).reshape(-1)
    junk_expected = junk_expected.reshape(-1)
    anc_expected = anc_expected.reshape(-1)

    exp_norm = np.linalg.norm(expected)
    if exp_norm > 0:
        expected_unit = expected / exp_norm
    else:
        expected_unit = expected
    fid = _fidelity(output, expected)

    overlap = np.vdot(expected_unit, output)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    max_entry_error = float(np.max(np.abs(output - phase * expected_unit)))

    factorized, junk, extracted = _schmidt_split(out)
    junk_fid = _fidelity(junk, junk_expected) if factorized else 0.0
    extracted_fid = _fidelity(extracted, anc_expected) if factorized else 0.0

    return IsometryResult(
        target=target,
        output=output,
        expected=expected_unit,
        fidelity=fid,
        junk=junk if factorized else None,
        extracted=extracted if factorized else None,
        junk_fidelity=junk_fid,
        extracted_fidelity=extracted_fid,
        factorized=factorized,
        max_entry_error=max_entry_error,
    )


def perturbed_state(delta: float) -> np.ndarray:
    """Maximally entangled state mixed with |00> by amplitude ``delta``, renormalized."""
    vec = phi_plus() + delta * np.array([1, 0, 0, 0], dtype=complex)
    return vec / np.linalg.norm(vec)
