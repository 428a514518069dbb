"""Dense linear algebra helpers, checked against hand-rolled oracles."""

import numpy as np
import pytest

from steerqrng import linalg as la


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def jacobi_eigenvalues(a, sweeps=60, tol=1e-13):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Each step diagonalizes one 2x2 principal submatrix with the closed-form
    eigendecomposition, so the only numerics involved are square roots.
    Serves as an eigensolver oracle independent of LAPACK.
    """
    a = np.array(a, dtype=complex)
    d = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(sum(abs(a[i, j]) ** 2 for i in range(d) for j in range(d) if i != j))
        if off < tol:
            break
        for p in range(d):
            for q in range(p + 1, d):
                b = a[p, q]
                if abs(b) < tol / (d * d):
                    continue
                app, aqq = a[p, p].real, a[q, q].real
                mid = 0.5 * (app + aqq)
                rad = np.sqrt((0.5 * (app - aqq)) ** 2 + abs(b) ** 2)
                lam_hi = mid + rad
                # Pick the eigenvector expression whose kept component is at
                # least `rad`, avoiding cancellation when b is small.
                if app >= aqq:
                    v_hi = np.array([lam_hi - aqq, b.conjugate()], dtype=complex)
                else:
                    v_hi = np.array([b, lam_hi - app], dtype=complex)
                v_hi /= np.linalg.norm(v_hi)
                v_lo = np.array([-v_hi[1].conj(), v_hi[0].conj()])
                u = np.eye(d, dtype=complex)
                u[p, p], u[p, q] = v_hi[0], v_lo[0]
                u[q, p], u[q, q] = v_hi[1], v_lo[1]
                a = u.conj().T @ a @ u
    return np.sort(np.diag(a).real)


class TestBasicObjects:
    def test_ket_normalizes(self):
        v = la.ket(3, 4j)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert v[0] == pytest.approx(0.6)

    def test_ket_rejects_zero(self):
        with pytest.raises(ValueError):
            la.ket(0, 0)

    def test_projector_idempotent_rank_one(self, rng):
        psi = la.ket(*rng.normal(size=4))
        p = la.projector(psi)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_paulis_square_to_identity(self):
        for s in (la.PAULI_X, la.PAULI_Y, la.PAULI_Z):
            assert np.allclose(s @ s, np.eye(2), atol=1e-15)
        assert np.allclose(
            la.PAULI_X @ la.PAULI_Y - la.PAULI_Y @ la.PAULI_X,
            2j * la.PAULI_Z,
            atol=1e-15,
        )

    def test_singlet_state(self):
        rho = la.singlet_state()
        la.assert_density_matrix(rho, name="singlet")
        # pure: rho^2 == rho
        assert np.allclose(rho @ rho, rho, atol=1e-14)
        # maximally entangled: both marginals are maximally mixed
        assert np.allclose(la.partial_trace_A(rho, 2, 2), np.eye(2) / 2, atol=1e-14)
        # antisymmetric: |00> and |11> amplitudes vanish, <01|rho|01> = 1/2
        assert rho[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert rho[1, 1].real == pytest.approx(0.5, abs=1e-14)
        assert rho[1, 2].real == pytest.approx(-0.5, abs=1e-14)


class TestTensorAndPartialTrace:
    def test_tensor_matches_index_oracle(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        got = la.tensor(a, b)
        oracle = np.zeros((6, 6), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        oracle[i * 3 + k, j * 3 + l] = a[i, j] * b[k, l]
        assert np.allclose(got, oracle, atol=1e-14)

    def test_tensor_dimension_guard(self):
        big = np.eye(8)
        with pytest.raises(ValueError):
            la.tensor(big, big)

    def test_partial_trace_matches_double_sum_oracle(self, rng):
        rho = random_hermitian(rng, 6)
        got = la.partial_trace_A(rho, 2, 3)
        oracle = np.zeros((3, 3), dtype=complex)
        for b1 in range(3):
            for b2 in range(3):
                for a_idx in range(2):
                    oracle[b1, b2] += rho[a_idx * 3 + b1, a_idx * 3 + b2]
        assert np.allclose(got, oracle, atol=1e-14)

    def test_partial_trace_of_product(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert np.allclose(la.partial_trace_A(la.tensor(a, b), 2, 2), b, atol=1e-13)

    def test_partial_trace_shape_guard(self):
        with pytest.raises(ValueError):
            la.partial_trace_A(np.eye(5), 2, 2)


class TestEigenHelpers:
    def test_eigvalsh_agrees_with_jacobi_oracle(self, rng):
        for dim in (2, 3, 4, 5):
            for _ in range(5):
                a = random_hermitian(rng, dim)
                lapack = np.sort(np.linalg.eigvalsh(a))
                jacobi = jacobi_eigenvalues(a)
                assert np.allclose(lapack, jacobi, atol=1e-9)

    def test_min_eigenvalue_known(self):
        assert la.min_eigenvalue(la.PAULI_Z) == pytest.approx(-1.0, abs=1e-12)
        assert la.min_eigenvalue(np.eye(3) * 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_min_eigenvalue_matches_jacobi(self, rng):
        a = random_hermitian(rng, 4)
        assert la.min_eigenvalue(a) == pytest.approx(jacobi_eigenvalues(a)[0], abs=1e-9)

    def test_hermitian_guards(self, rng):
        with pytest.raises(ValueError):
            la.assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            la.assert_density_matrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            la.assert_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
