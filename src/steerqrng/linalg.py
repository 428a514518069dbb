"""Small dense linear algebra for two-qubit steering computations.

Conventions used throughout the package:

* computational basis ``|0>``, ``|1>`` with the standard Pauli matrices,
* tensor products ordered Alice (x) Bob,
* states are complex density matrices (trace one, PSD) stored as
  ``numpy`` arrays of ``complex128``.

Everything here is plain functions on ``numpy`` arrays; validation helpers
raise ``ValueError`` with a descriptive message instead of returning flags.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ID2",
    "ket",
    "projector",
    "ket_plus",
    "ket_minus",
    "singlet_state",
    "tensor",
    "partial_trace_A",
    "min_eigenvalue",
    "hermitian_part",
    "assert_hermitian",
    "assert_density_matrix",
    "hermitian_basis",
]

HERMITIAN_TOL = 1e-10
DENSITY_EIG_TOL = -1e-10
MAX_TENSOR_DIM = 16

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def ket(*amplitudes: complex) -> np.ndarray:
    """Normalized column vector from amplitudes."""
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector cannot be normalized")
    return v / norm


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def ket_plus() -> np.ndarray:
    return ket(1, 1)


def ket_minus() -> np.ndarray:
    return ket(1, -1)


def singlet_state() -> np.ndarray:
    """Density matrix of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    psi = ket(0, 1, -1, 0)
    return projector(psi)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with Alice as the left factor.

    Raises ``ValueError`` if the resulting dimension would exceed
    ``MAX_TENSOR_DIM`` (this package only ever needs two-qubit products).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("tensor expects 2-d matrices")
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_TENSOR_DIM:
        raise ValueError(f"tensor result dimension {out_dim} exceeds maximum {MAX_TENSOR_DIM}")
    return np.kron(a, b)


def partial_trace_A(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out Alice's factor of a bipartite operator on C^dim_a (x) C^dim_b."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(
            f"operator shape {rho.shape} incompatible with dims ({dim_a}, {dim_b})"
        )
    reshaped = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("abad->bd", reshaped)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2, of every matrix along the last two axes."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Return ``a`` unchanged after checking Hermiticity to ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} is not square: shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return a


def min_eigenvalue(a: np.ndarray, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    a = assert_hermitian(a, tol)
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def assert_density_matrix(
    rho: np.ndarray,
    *,
    trace_tol: float = 1e-10,
    eig_tol: float = DENSITY_EIG_TOL,
    name: str = "state",
) -> np.ndarray:
    """Validate trace one, Hermiticity and positivity; returns the state."""
    rho = assert_hermitian(rho, name=name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"{name} trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    lam = min_eigenvalue(rho)
    if lam < eig_tol:
        raise ValueError(f"{name} has negative eigenvalue {lam:.3e} below {eig_tol:.1e}")
    return rho


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of Hermitian dim x dim matrices.

    Ordering: diagonal units first, then for each i<j the pair
    (E_ij + E_ji)/sqrt(2) and (-iE_ij + iE_ji)/sqrt(2), so that expansion
    coefficients of any Hermitian matrix are real.
    """
    basis: list[np.ndarray] = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[i, j] = inv_sqrt2
            s[j, i] = inv_sqrt2
            basis.append(s)
            t = np.zeros((dim, dim), dtype=complex)
            t[i, j] = -1.0j * inv_sqrt2
            t[j, i] = 1.0j * inv_sqrt2
            basis.append(t)
    return basis
