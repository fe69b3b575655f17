import numpy as np
import pytest

from oracles import as_operator, born_table, partial_trace, proj, tensor
from pogame import qmat
from pogame.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    m = random_matrix(rng, d)
    return (m + m.conj().T) / 2


def test_tensor_identity_case():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_zz_inner_product_on_phi_plus():
    phi = qmat.phi_plus()
    u = tensor(SIGMA_Z, I2) @ phi
    v = tensor(I2, SIGMA_Z) @ phi
    assert np.vdot(v, u).real == pytest.approx(1.0, abs=1e-14)


def test_tensor_xx_expectation_on_phi_plus():
    # Oracle: expand <phi|sx (x) sx|phi> by explicit index sums, no kron.
    phi2 = np.zeros((2, 2), dtype=complex)
    phi2[0, 0] = phi2[1, 1] = 1 / np.sqrt(2)
    expected = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected += (phi2[i, j].conj() * SIGMA_X[i, k] * SIGMA_X[j, l] * phi2[k, l]).real
    assert expected == pytest.approx(1.0, abs=1e-15)

    phi = qmat.phi_plus()
    value = np.vdot(phi, tensor(SIGMA_X, SIGMA_X) @ phi).real
    assert value == pytest.approx(expected, abs=1e-14)


def test_tensor_associative_and_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.allclose(left, right, atol=1e-12)
        s, t = rng.normal(size=2)
        assert np.allclose(
            tensor(s * a + t * b, c),
            s * tensor(a, c) + t * tensor(b, c),
            atol=1e-12,
        )


def test_trace_cyclic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_partial_trace_maximally_entangled_marginal():
    rho = proj(qmat.phi_plus())
    reduced = partial_trace(rho, keep=1, dims=[2, 2])
    assert np.allclose(reduced, I2 / 2, atol=1e-14)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_hermitian(rng, 2)
        sigma = random_hermitian(rng, 3)
        combined = tensor(rho, sigma)
        reduced = partial_trace(combined, keep=0, dims=[2, 3])
        assert np.allclose(reduced, rho * np.trace(sigma), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    rho = random_hermitian(rng, 8)
    reduced = partial_trace(rho, keep=[0, 2], dims=[2, 2, 2])
    assert np.trace(reduced) == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_partial_trace_steered_projection():
    # Oracle: reduce P rho P by explicit sums over the traced index.
    phi = qmat.phi_plus()
    rho = proj(phi)
    plus = (I2 + SIGMA_Z) / 2
    big = tensor(plus, I2)
    unnorm = big @ rho @ big

    manual = np.zeros((2, 2), dtype=complex)
    t = unnorm.reshape(2, 2, 2, 2)
    for j in range(2):
        for l in range(2):
            manual[j, l] = sum(t[i, j, i, l] for i in range(2))
    manual = manual / np.trace(manual)

    steered = partial_trace(unnorm, keep=1, dims=[2, 2])
    steered = steered / np.trace(steered)
    assert np.allclose(steered, manual, atol=1e-14)
    assert np.allclose(steered, (I2 + SIGMA_Z) / 2, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), keep=0, dims=[2, 3])


def test_as_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        qmat.as_state([1.0, 1.0])


def test_as_operator_rejects_non_finite():
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    for p in qmat.PAULIS:
        assert np.allclose(p @ p, I2)
        assert np.array_equal(p, p.conj().T)
        assert np.allclose(p.conj().T @ p, I2)


@pytest.mark.parametrize("width", [3, 4, 41])
def test_row_norms_match_per_row_norm_bit_for_bit(width):
    rng = np.random.default_rng(width)
    real = rng.normal(size=(2000, width))
    for rows in (real, real + 1j * rng.normal(size=real.shape)):
        assert np.array_equal(qmat.row_norms(rows), [np.linalg.norm(row) for row in rows])


def test_pauli_coordinates_invert_from_pauli_and_read_the_lower_triangle():
    rng = np.random.default_rng(11)
    stack = np.array([random_hermitian(rng, 2) for _ in range(6)])
    coords = qmat.pauli_coordinates(stack)
    assert coords.shape == (6, 4) and coords.dtype == float
    assert np.max(np.abs(qmat.from_pauli(coords) - stack)) <= 1e-15
    # Like eigh, the entries above the diagonal are never read.
    skewed = stack.copy()
    skewed[:, 0, 1] += 5.0 + 3.0j
    assert np.array_equal(qmat.pauli_coordinates(skewed), coords)
    assert np.array_equal(qmat.pauli_coordinates(SIGMA_Y), [0.0, 0.0, 1.0, 0.0])


def test_correlation_tensor_of_phi_plus():
    # <phi+| s_mu (x) s_nu |phi+> = diag(1, 1, -1, 1): sigma_y is the one odd under transposition.
    corr = qmat.correlations(qmat.phi_plus())
    assert np.max(np.abs(corr - np.diag([1.0, 1.0, -1.0, 1.0]))) <= 1e-15


def test_coordinate_born_table_matches_the_matrix_route():
    rng = np.random.default_rng(12)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    alice = np.array([random_hermitian(rng, 2) for _ in range(3)])
    bob = np.array([random_hermitian(rng, 2) for _ in range(5)])
    via_coords = qmat.pauli_coordinates(alice) @ qmat.correlations(psi) @ qmat.pauli_coordinates(bob).T
    assert np.max(np.abs(via_coords - born_table(alice, bob, psi))) <= 1e-13
    projectors = qmat.outcome_coordinates(qmat.pauli_coordinates(bob))
    assert projectors.shape == (5, 2, 4)
    assert np.max(np.abs(qmat.from_pauli(projectors) - qmat.outcome_projectors(bob))) <= 1e-15


def test_closed_form_spectra_and_norms_of_known_matrices():
    # diag(3, -5): eigenvalues -5 and 3, norm 5; 2 I: a double eigenvalue.
    m = np.array([np.diag([3.0, -5.0]), 2.0 * I2, SIGMA_X - 0.5 * I2])
    coords = qmat.pauli_coordinates(m)
    assert np.array_equal(qmat.hermitian_spectra(coords), [[-5.0, 3.0], [2.0, 2.0], [-1.5, 0.5]])
    assert np.array_equal(qmat.hermitian_norms(coords), [5.0, 2.0, 1.5])
    # |v| of a tiny Bloch vector does not underflow to zero.
    assert qmat.hermitian_norms(np.array([0.0, 3e-200, 4e-200, 0.0])) == 5e-200
