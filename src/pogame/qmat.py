"""Dense complex linear algebra for qubit operators and two-qubit states.

Operators are complex128 ndarrays in row-major order; pure states are 1-D
complex128 ndarrays.  Local operators never meet the state as a 4x4
Kronecker product: they act on the 2x2 form of a two-qubit state
(``apply_local``).  The outcome projectors ``(I + (-1)^a M)/2`` of a stack
of observables are built in one place (``outcome_projectors``, and
``outcome_coordinates`` in Pauli coordinates).

Hermitian 2x2 matrices also have a real form, their Pauli coordinates
(m0, v) with m = m0 I + v . sigma (``pauli_coordinates``; a Bloch vector
v has the coordinates (0, v), ``traceless_coordinates``), and a pure or
mixed state has its correlation tensor T_mu,nu = tr[(sigma_mu (x)
sigma_nu) rho] (``correlations``, ``density_correlations``).  The Born
rule has one formula, on that form: the table of two stacks of effects
with coordinates ``e`` and ``f`` is ``e T f^T``.  The eigenvalues
m0 -+ |v|, the spectral norm |m0| + |v| and the square
(``hermitian_spectra``, ``hermitian_norms``, ``pauli_squares``) are
closed forms, with no LAPACK call.  All functions are pure and never
mutate their arguments.
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

#: The Pauli basis (I, sigma_x, sigma_y, sigma_z), and its 16 two-qubit
#: products: row 4 mu + nu of ``PAULI_PRODUCTS`` is sigma_mu (x) sigma_nu, flattened.
_PAULI_BASIS = np.array((I2,) + PAULIS)
PAULI_PRODUCTS = (_PAULI_BASIS[:, None, :, None, :, None] * _PAULI_BASIS[None, :, None, :, None, :]).reshape(16, 16)

#: Pauli coordinates of the identity.
I_PAULI = np.array([1.0, 0.0, 0.0, 0.0])

#: Pauli coordinates from the 8 real numbers of a row-major 2x2 complex matrix,
#: (Re, Im) of m00, m01, m10, m11: (m00 + m11, Re m10, Im m10, m00 - m11), then
#: times ``_HALVES``.  Halving after the sum rounds as ``(m00 + m11)/2`` does, subnormals included.
_FROM_ENTRIES = np.zeros((8, 4))
_FROM_ENTRIES[[0, 6, 4, 5, 0, 6], [0, 0, 1, 2, 3, 3]] = [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
_HALVES = np.array([0.5, 1.0, 1.0, 0.5])

_LOWER_UPPER = np.array([-1.0, 1.0])


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex state vector normalized within ``EPS``."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if not np.isfinite(arr).all():  # a complex entry is finite iff both its parts are
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


_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None]


def outcome_projectors(observables) -> np.ndarray:
    """Projectors ``(I + (-1)^a M)/2`` of a stack of observables, indexed ``[..., a, :, :]``.

    Outcome ``a`` in {0, 1} is the eigenvalue ``(-1)^a``; a single 2x2
    observable gives a (2, 2, 2) stack, ``n`` of them an (n, 2, 2, 2) one.
    """
    m = np.asarray(observables, dtype=complex)[..., None, :, :]
    return (I2 + _OUTCOME_SIGNS[..., None] * m) / 2.0


def outcome_coordinates(coords: np.ndarray) -> np.ndarray:
    """``outcome_projectors`` in Pauli coordinates: (..., 4) observables give (..., 2, 4) projectors."""
    return (I_PAULI + _OUTCOME_SIGNS * coords[..., None, :]) / 2.0


def phi_plus() -> np.ndarray:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def pauli_coordinates(m) -> np.ndarray:
    """Real coordinates (m0, vx, vy, vz) of m = m0 I + v . sigma for a (..., 2, 2) Hermitian stack.

    Like ``eigh``, it takes the lower triangle: the entries above the
    diagonal and the diagonal's imaginary parts enter with weight 0.  One
    real matmul on the entries' (..., 8) float view.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    return (m.view(float).reshape(m.shape[:-2] + (8,)) @ _FROM_ENTRIES) * _HALVES


def from_pauli(coords: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrices of (..., 4) Pauli coordinates: the inverse of ``pauli_coordinates``."""
    return (coords @ _PAULI_BASIS.reshape(4, 4)).reshape(coords.shape[:-1] + (2, 2))


def traceless_coordinates(bloch: np.ndarray) -> np.ndarray:
    """Pauli coordinates (0, v) of the traceless matrices v . sigma for (..., 3) Bloch vectors v."""
    return np.concatenate([np.zeros(bloch.shape[:-1] + (1,)), bloch], axis=-1)


def correlations(psi: np.ndarray) -> np.ndarray:
    """Correlation tensors T_mu,nu = <psi| sigma_mu (x) sigma_nu |psi> of (..., 4) states, shape (..., 4, 4).

    For C with Pauli coordinates c, tr[(C (x) sigma_nu) rho] = (c T)_nu and
    tr[(sigma_mu (x) C) rho] = (T c)_mu, so each party's effective operators
    are one matmul with T, and ``<psi| E (x) F |psi>`` is ``e T f``.
    """
    # conj(psi) psi^T is the transpose of |psi><psi|.
    return _transposed_correlations(psi.conj()[..., :, None] * psi[..., None, :])


def density_correlations(rho: np.ndarray) -> np.ndarray:
    """``correlations`` of (..., 4, 4) density matrices, pure or mixed: sum_ij rho_ji (sigma_mu (x) sigma_nu)_ij."""
    return _transposed_correlations(np.asarray(rho, dtype=complex).mT)


def _transposed_correlations(rho_t: np.ndarray) -> np.ndarray:
    """The one contraction behind both: T_mu,nu = sum_ij (rho^T)_ij (sigma_mu (x) sigma_nu)_ij."""
    lead = rho_t.shape[:-2]
    return (rho_t.reshape(lead + (16,)) @ PAULI_PRODUCTS.T).real.reshape(lead + (4, 4))


def bloch_lengths(coords: np.ndarray) -> np.ndarray:
    """|v| of (..., 4) Pauli coordinates (m0, v).

    ``hypot``, not ``sqrt(v . v)``: the square of a tiny |v| would underflow.
    """
    return np.hypot(np.hypot(coords[..., 1], coords[..., 2]), coords[..., 3])


def hermitian_spectra(coords: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (m0 - |v|, m0 + |v|) of the Hermitian matrices with (..., 4) Pauli coordinates."""
    return coords[..., :1] + _LOWER_UPPER * bloch_lengths(coords)[..., None]


def hermitian_norms(coords: np.ndarray) -> np.ndarray:
    """Spectral norms |m0| + |v| of the Hermitian matrices with (..., 4) Pauli coordinates.

    The larger of |m0 -+ |v||, in a form that keeps every digit when the
    two singular values nearly coincide.
    """
    return np.abs(coords[..., 0]) + bloch_lengths(coords)


def pauli_squares(coords: np.ndarray) -> np.ndarray:
    """Pauli coordinates of m^2 = (m0^2 + |v|^2) I + 2 m0 v . sigma for (..., 4) coordinates (m0, v)."""
    out = 2.0 * coords[..., :1] * coords
    out[..., 0] = np.vecdot(coords, coords)
    return out
