"""Dense complex linear algebra for qubit operators and two-qubit states.

Operators are complex128 ndarrays in row-major order; pure states are 1-D
complex128 ndarrays.  Operators are 2x2 qubit observables or 4x4 two-qubit
matrices, so dense storage and LAPACK routines are used throughout.  Local
operators never meet the state as a 4x4 Kronecker product: they act on the
2x2 form of a two-qubit state (``apply_local``), and the Born-rule table
``<psi| E_i (x) F_j |psi>`` of two whole stacks of 2x2 effects is one
contraction on that form (``born_table``).  The outcome projectors
``(I + (-1)^a M)/2`` of a stack of observables are built in one place
(``outcome_projectors``).  All functions are pure and never mutate their
arguments.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance of every Hermiticity, normalization and observable check.
EPS = 1e-9

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _all_finite(arr: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex state vector normalized within ``EPS``."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if not _all_finite(arr):
        raise ValueError("state contains non-finite entries")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > EPS:
        raise ValueError(f"state is not normalized: |v| = {norm}")
    return arr


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis; each row matches ``np.linalg.norm`` of it bit for bit."""
    if np.iscomplexobj(a):
        return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    return np.sqrt(np.vecdot(a, a))


def apply_local(a, b, psi) -> np.ndarray:
    """``(a (x) b) psi`` for a two-qubit state, returned as the 2x2 matrix ``a psi2 b^T``.

    Reshaped row-major, a two-qubit vector is the 2x2 matrix ``psi2`` with
    Alice's index on rows and Bob's on columns, so each local operator acts
    by one matrix product.  ``a`` and ``b`` may be stacks of 2x2 matrices,
    which broadcast.
    """
    return a @ np.reshape(psi, (2, 2)) @ np.swapaxes(b, -1, -2)


_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]


def outcome_projectors(observables) -> np.ndarray:
    """Projectors ``(I + (-1)^a M)/2`` of a stack of observables, indexed ``[..., a, :, :]``.

    Outcome ``a`` in {0, 1} is the eigenvalue ``(-1)^a``; a single 2x2
    observable gives a (2, 2, 2) stack, ``n`` of them an (n, 2, 2, 2) one.
    """
    m = np.asarray(observables, dtype=complex)[..., None, :, :]
    return (I2 + _OUTCOME_SIGNS * m) / 2.0


def born_table(alice, bob, psi) -> np.ndarray:
    """``<psi| E_i (x) F_j |psi>`` for every pair of 2x2 effects of two stacks.

    ``alice`` and ``bob`` are arrays of shape ``(..., 2, 2)``; the result
    has shape ``alice.shape[:-2] + bob.shape[:-2]`` and is real.  With
    ``psi2`` the 2x2 form of the state, the entry is
    ``sum(E_i psi2 * conj(psi2) F_j)``, so the whole table is one matrix
    product of the two flattened stacks.
    """
    a = np.asarray(alice)
    b = np.asarray(bob)
    psi2 = np.reshape(psi, (2, 2))
    left = (a @ psi2).reshape(-1, 4)
    right = (psi2.conj() @ b).reshape(-1, 4)
    return (left @ right.T).real.reshape(a.shape[:-2] + b.shape[:-2])


def proj(v) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(arr, arr.conj())


def phi_plus() -> np.ndarray:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def operator_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))
