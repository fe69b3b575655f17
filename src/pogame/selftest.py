"""SWAP-circuit self-test, run as a list of stages on the 2x2 state.

A two-qubit state ``psi`` is handled as the 2x2 matrix ``psi2`` with
Alice's index on rows and Bob's on columns, so every local operator acts as
``(M (x) N) psi = M psi2 N^T`` (``qmat.apply_local``).

The swap operators come from one Gram-Schmidt construction on the state,
the same for every n (``build_selftest_operators``): Z is the first
setting, X the normalized part of another setting orthogonal to Z, and Y
the largest remainder left after the Z and X parts, present only when the
observables are not planar.  The construction reads only the correlations
``Re<A_j psi, A_k psi>``, as in the SWAP-isometry self-test of McKague,
Yang and Scarani (J. Phys. A 45, 455304, 2012).

The swap circuit is a list of stages.  Each stage adds one ancilla per
party, starts both in |0> and leaves one branch operator per party for each
ancilla value: the physical pair goes to ``sum_jk (K_j (x) L_k) psi |j>|k>``
with Alice's branches ``K_j`` and Bob's ``L_k``.  There are two stages:

- (Z, X): a Hadamard sandwich around controlled-Z, then controlled-X,
  leaves ``(I + Z)/2`` and ``X (I - Z)/2``;
- (iYX), present when the swap frame has a y direction: a Hadamard
  sandwich around controlled ``M = i Y X`` leaves ``(I + M)/2`` and
  ``(I - M)/2``.

The second stage controls the single unitary ``i Y X`` (phase included):
with the product operator the cross branches cancel against the optimum
relations, which plain controlled-Y gates do not achieve.  The sigma_y
direction is only ever extracted up to the sigma_z dressing of the junk
state, reflecting the complex-conjugation equivalence of the correlations.

Registers are ordered ``(A, B, A', B', A'', B'')``: the physical pair
first, then one ancilla pair per stage, so a planar frame's circuit has
four registers and one with a y direction six.  The first stage's pair
(A', B') receives the extracted state; the junk is left on the physical
pair and the later ancillas.  At the optimum each later stage leaves its
ancilla pair correlated, so the predicted junk is built from Alice's
branches alone: ``xi = sum_j (K_j chi) |jj>``.

All targets of a setup run as one stack (``run_targets``).  A target is
the state or one frame operator of one party: each party's menu is the
identity and its swap operators Z, X and, when present, Y, so the targets'
operators and their reference actions on the extracted pair are (T, 2, 2)
stacks.  The circuit then runs once on a (T, 2, 2, ...) state stack, every
Schmidt split is one batched SVD, the junk prediction is built once and
sigma_z dressed only on the y targets' rows, and the fidelities and entry
errors are computed row-wise, rounding each row as a single target's
computation would.  ``run_isometry`` is a stack of one.

The raw observables are not run through the circuit: each is covered by
its coordinates on its own party's frame (``frame_coordinates``), as in
the SWAP-isometry argument, where ``A_x psi`` is the coordinate-weighted
sum of the frame operators on the state.  The circuit is linear, so a raw
observable's output is the same sum of the frame targets' outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import CertificationError, QuantumSetup
from .qmat import (
    EPS,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_local,
    hermitian_norms,
    outcome_projectors,
    pauli_coordinates,
    phi_plus,
    row_norms,
)

# Largest second Schmidt coefficient of a factorized output, and the
# remainder below which the swap frame has no y direction.
_SPAN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SelfTestOperators:
    """Normalized swap operators built from ``setup``'s observables.

    ``y_a`` and ``y_b`` are None when the observables are planar on the
    state; ``norms`` holds the state norm each operator was divided by.
    """

    setup: QuantumSetup
    z_a: np.ndarray
    x_a: np.ndarray
    z_b: np.ndarray
    x_b: np.ndarray
    y_a: np.ndarray | None = None
    y_b: np.ndarray | None = None
    norms: dict | None = None


def _first_largest(values: np.ndarray) -> int:
    """Index of the first value within ``_SPAN_TOL`` of the largest, so roundoff cannot break a tie."""
    return int(np.argmax(values >= values.max() - _SPAN_TOL))


def _traceless_part(m: np.ndarray) -> np.ndarray:
    """``m - tr(m)/2 I`` for a (..., 2, 2) stack, off-diagonal entries left as they are."""
    out = np.array(m, dtype=complex)
    half = (out[..., 0, 0] + out[..., 1, 1]) / 2
    out[..., 0, 0] -= half
    out[..., 1, 1] -= half
    return out


def _normalized(alice_op: np.ndarray, bob_op: np.ndarray, psi) -> tuple[np.ndarray, list[float]]:
    """Both operators divided by their state norms ``|(alice_op (x) I) psi|`` and ``|(I (x) bob_op) psi|``.

    A norm below ``EPS`` raises ``CertificationError``.
    """
    on_state = apply_local(np.array([alice_op, I2]), np.array([I2, bob_op]), psi)
    norms = row_norms(on_state.reshape(2, 4))
    if norms.min() < EPS:
        raise CertificationError("swap operator has vanishing norm on the state")
    return np.array([alice_op, bob_op]) / norms[:, None, None], norms.tolist()


def build_selftest_operators(setup: QuantumSetup) -> SelfTestOperators:
    """Swap operators (Z, X-tilde and, for non-planar observables, Y-tilde) by Gram-Schmidt on the state.

    With ``G_jk = Re<A_j psi, A_k psi>`` and ``c_j = G_1j``:

    - ``Z_A = A_1`` and ``Z_B = -B_1``;
    - X uses the first j maximizing ``G_jj - c_j^2`` (ties within ``_SPAN_TOL``):
      ``X_A = (A_j - c_j A_1)/||.psi||`` and ``X_B = -(B_j - c_j B_1)/||.psi||``;
    - Y uses the largest remainder ``R_k``, the traceless part of
      ``A_k - c_k A_1 - d_k X_A`` with ``d_k = Re<X_A psi, A_k psi>``:
      ``Y_A = R_k/||R_k psi||`` and ``Y_B`` the traceless part of
      ``B_k - c_k B_1 + d_k X_B``, over its state norm, so ``Y_A psi = -Y_B psi``
      at the optimum.  It is present only when ``||R_k psi|| > _SPAN_TOL``.
      An identity part is not a Pauli direction: dropped here, it stays in
      the leftover of ``frame_coordinates``.

    Every divisor is a state norm, so the construction only uses quantities
    available from the correlations.  A frame operator that does not square
    to the identity within 1e-6 in spectral norm (the closed form of the
    Hermitian ``F^2 - I``) means the settings span no swap frame on the
    state, and raises ``CertificationError``.
    """
    psi = setup.state
    alice, bob = np.asarray(setup.alice), np.asarray(setup.bob)

    on_state = apply_local(alice, I2, psi).reshape(len(alice), 4)
    gram = (on_state.conj() @ on_state.T).real
    c = gram[0]
    j = _first_largest(np.diag(gram) - c**2)
    norms: dict[str, float] = {}
    (x_a, x_b), (norms["x_a"], norms["x_b"]) = _normalized(alice[j] - c[j] * alice[0], -(bob[j] - c[j] * bob[0]), psi)
    frame = [x_a, x_b]

    d = (apply_local(x_a, I2, psi).reshape(4).conj() @ on_state.T).real
    remainders = _traceless_part(alice - c[:, None, None] * alice[0] - d[:, None, None] * x_a)
    remainder_norms = row_norms(apply_local(remainders, I2, psi).reshape(len(alice), 4))
    k = _first_largest(remainder_norms)
    y_a = y_b = None
    if remainder_norms[k] > _SPAN_TOL:
        bob_remainder = _traceless_part(bob[k] - c[k] * bob[0] + d[k] * x_b)
        (y_a, y_b), (norms["y_a"], norms["y_b"]) = _normalized(remainders[k], bob_remainder, psi)
        frame += [y_a, y_b]
    frame = np.array(frame)
    if np.max(hermitian_norms(pauli_coordinates(frame @ frame - I2))) > 1e-6:
        raise CertificationError("normalized swap operator does not square to the identity")
    return SelfTestOperators(setup, alice[0], x_a, -bob[0], x_b, y_a, y_b, norms)


def verify_relations(ops: SelfTestOperators, state) -> dict[str, float]:
    """Residual norms of the optimum relations, all zero at the exact optimum.

    Each relation is ``|(L1 (x) R1) psi + (L2 (x) R2) psi|``: the n diagonal
    anticorrelations, the Z/X relations, ``sum_zero = |(sum_x A_x (x) I) psi|``
    (with the diagonal relations it implies every pairwise sum relation) and,
    when the frame has a y direction, the Y relations.  All of them are one
    ``apply_local`` on an (R, 2, 2, 2) stack of term pairs and one row-wise norm.
    """
    psi = np.asarray(state, dtype=complex).reshape(2, 2)
    zero = np.zeros((2, 2), dtype=complex)
    z_a, x_a, z_b, x_b = ops.z_a, ops.x_a, ops.z_b, ops.x_b
    alice, bob = ops.setup.alice, ops.setup.bob
    terms = {f"diag_anticorrelation_{x + 1}": ((a, b), (I2, I2)) for x, (a, b) in enumerate(zip(alice, bob))}
    terms |= {
        "z_equal": ((z_a, I2), (I2, -z_b)),
        "x_equal": ((x_a, I2), (I2, -x_b)),
        "zx_anticommute_a": ((z_a @ x_a + x_a @ z_a, I2), (zero, zero)),
        "zx_anticommute_b": ((I2, z_b @ x_b + x_b @ z_b), (zero, zero)),
        "sum_zero": ((np.sum(alice, axis=0), I2), (zero, zero)),
    }
    if ops.y_a is not None:
        y_a, y_b = ops.y_a, ops.y_b
        yx_a, yx_b = y_a @ x_a, y_b @ x_b
        terms |= {
            "y_opposite": ((y_a, I2), (I2, y_b)),
            "yx_anticommute_a": ((yx_a + x_a @ y_a, I2), (zero, zero)),
            "yx_anticommute_b": ((I2, yx_b + x_b @ y_b), (zero, zero)),
            "zy_anticommute_a": ((z_a @ y_a + y_a @ z_a, I2), (zero, zero)),
            "zy_anticommute_b": ((I2, z_b @ y_b + y_b @ z_b), (zero, zero)),
            "yx_product_equal": ((yx_a, I2), (I2, -yx_b)),
            "yx_yx_minus_one": ((yx_a, yx_b), (I2, I2)),
        }
    stack = np.array(list(terms.values()))  # (R, term, party, 2, 2)
    vectors = apply_local(stack[:, :, 0], stack[:, :, 1], psi).sum(axis=1)
    return dict(zip(terms, row_norms(vectors.reshape(len(terms), 4)).tolist()))


@dataclass(frozen=True, eq=False)
class SwapCircuit:
    """Stages applied in order over ``nregs = 2 + 2 * len(stages)`` qubit registers.

    Each stage is a pair of (2, 2, 2) stacks, Alice's and Bob's branch
    operators indexed by the value of the stage's ancilla.
    """

    nregs: int
    stages: tuple[tuple[np.ndarray, np.ndarray], ...]


def _zx_branches(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I + Z)/2 and X (I - Z)/2: Hadamard, controlled-Z, Hadamard, controlled-X."""
    return np.array([(I2 + z) / 2, x @ (I2 - z) / 2])


def build_circuit(ops: SelfTestOperators) -> SwapCircuit:
    """Stage list of the swap circuit: (Z, X), then (iYX) when the frame has a y direction."""
    stages = [(_zx_branches(ops.z_a, ops.x_a), _zx_branches(ops.z_b, ops.x_b))]
    if ops.y_a is not None:
        stages.append(
            # (I + M)/2 and (I - M)/2: Hadamard, controlled-M, Hadamard.
            (outcome_projectors(1j * ops.y_a @ ops.x_a), outcome_projectors(1j * ops.y_b @ ops.x_b))
        )
    return SwapCircuit(nregs=2 + 2 * len(stages), stages=tuple(stages))


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


def _fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``|<a|b>|^2 / (|a|^2 |b|^2)``, zero where either row vanishes.

    Each step rounds as it does on one pair of vectors: ``hypot`` is
    ``abs`` of a complex scalar and ``float_power`` is ``**`` of a float
    scalar, so a row equals the fidelity of that pair computed alone.
    """
    norms = np.float_power(row_norms(a), 2) * np.float_power(row_norms(b), 2)
    overlaps = np.vecdot(a, b)
    moduli = np.float_power(np.hypot(overlaps.real, overlaps.imag), 2)
    return np.where(norms > 0, moduli / np.where(norms > 0, norms, 1.0), 0.0)


# Menu positions (Alice's, Bob's) of each target: 0 is the identity, 1 to 3 the frame operators Z, X, Y.
_TARGETS = {"state": (0, 0), "ZA": (1, 0), "XA": (2, 0), "YA": (3, 0), "ZB": (0, 1), "XB": (0, 2), "YB": (0, 3)}

# Reference actions of the menu on the extracted pair.
_REFERENCE = np.array([I2, SIGMA_Z, SIGMA_X, SIGMA_Y])


def all_targets(ops: SelfTestOperators) -> tuple[str, ...]:
    """The state and every frame target of ``ops``: ZA, XA, [YA,] ZB, XB[, YB]."""
    return tuple(target for target in _TARGETS if ops.y_a is not None or target[0] != "Y")


def _parse_target(target: str) -> tuple[int, int]:
    """Positions of the operators Alice and Bob apply for ``target`` in their menus (``_menu``)."""
    if target not in _TARGETS:
        raise ValueError(f"unrecognized isometry target: {target}")
    return _TARGETS[target]


def _menu(z, x, y) -> np.ndarray:
    """One party's menu: the identity, then its frame operators Z, X and Y, a zero matrix when there is none."""
    return np.array([I2, z, x, np.zeros_like(I2) if y is None else y])


def frame_coordinates(ops: SelfTestOperators) -> tuple[np.ndarray, np.ndarray]:
    """Each observable's coordinates on its own party's swap frame, and its leftover outside that frame.

    Returns a (2, n, 3) array whose row ``[p, x]`` is ``(z, x, y)``, with
    ``c_F = tr(A F)/2`` for Alice's (p = 0) or Bob's (p = 1) observable and
    the traceless part F of a frame operator, and y = 0 when the frame is
    planar; and the (2, n) Frobenius norms of ``A - z Z - x X - y Y``, which
    bound their spectral norms from above.  An axis with an identity part
    (an identity setting taken as Z or X) covers only its traceless part, so
    an identity setting always stays in the leftover.
    """
    frame = _traceless_part(np.array([_menu(ops.z_a, ops.x_a, ops.y_a), _menu(ops.z_b, ops.x_b, ops.y_b)])[:, 1:])
    observables = np.array([ops.setup.alice, ops.setup.bob])
    coords = np.einsum("pxij,pfji->pxf", observables, frame).real / 2.0
    leftover = observables - np.einsum("pxf,pfij->pxij", coords, frame)
    return coords, row_norms(leftover.reshape(2, ops.setup.n, 4))


def run_isometry(setup: QuantumSetup, target: str = "state") -> IsometryResult:
    """Apply the swap circuit and compare with the predicted factorized output.

    ``target`` selects the operator applied to the physical state before the
    circuit: "state" (none) or one frame operator, "ZA", "XA", "YA", "ZB",
    "XB" or "YB".  A raw observable is not a target: it is covered by its
    frame coordinates (``frame_coordinates``).  The expected vector is the
    junk factor times the corresponding reference action on the ancilla
    pair; fidelities are phase-invariant.
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
    targets = tuple(targets)
    if not targets:
        return ()
    pos = np.array([_parse_target(target) for target in targets])
    wants_y = np.any(pos == 3, axis=1)
    if ops.y_a is None and np.any(wants_y):
        raise ValueError(f"target {targets[np.argmax(wants_y)]} requires a y direction in the swap frame")
    a_op, a_ref = _menu(ops.z_a, ops.x_a, ops.y_a)[pos[:, 0]], _REFERENCE[pos[:, 0]]
    b_op, b_ref = _menu(ops.z_b, ops.x_b, ops.y_b)[pos[:, 1]], _REFERENCE[pos[:, 1]]

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

    exp_norm = row_norms(expected)[:, None]
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
