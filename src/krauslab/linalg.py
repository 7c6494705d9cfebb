"""Dense complex linear algebra helpers shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
small (a few dozen rows at most), so clarity beats performance throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default absolute tolerance (max-norm) used wherever none is given.
EPS = 1e-10

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def norm_max(m: np.ndarray) -> float:
    """Entrywise max-abs norm."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def norm_fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermiticity_residual(m: np.ndarray) -> float:
    return norm_max(m - dag(m))


def unitarity_residual(u: np.ndarray) -> float:
    return norm_max(dag(u) @ u - identity(u.shape[0]))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    Column j of ``vectors`` is the (phase-fixed) eigenvector paired with
    ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.vectors @ np.diag(self.values.astype(complex)) @ dag(self.vectors)


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first largest-modulus entry is real >= 0."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def eigh(m: np.ndarray, tol: float = EPS) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic conventions.

    Eigenvalues come out descending; each eigenvector's phase is fixed so
    that its first component of largest modulus is real and nonnegative.

    Raises ValueError if ``m`` is not square or not Hermitian within ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    res = hermiticity_residual(m)
    if res > tol:
        raise ValueError(f"matrix is not Hermitian: residual {res:.3e} > tol {tol:.3e}")
    values, vectors = np.linalg.eigh((m + dag(m)) / 2)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = _fix_column_phases(vectors[:, order])
    return EigenDecomposition(values=values, vectors=vectors)


def expm_hermitian_generator(h: np.ndarray, t: float, tol: float = EPS) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    The result is unitary up to rounding for any real t.
    """
    decomp = eigh(h, tol=tol)
    phases = np.exp(-1j * decomp.values * t)
    return decomp.vectors @ np.diag(phases) @ dag(decomp.vectors)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a (d0*d1) x (d0*d1) matrix.

    ``dims = (d0, d1)`` with the first factor index-major (row index is
    i0*d1 + i1).  ``keep`` selects the surviving factor, 0 or 1.
    """
    d0, d1 = dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("iaja->ij", t)
    if keep == 1:
        return np.einsum("aiaj->ij", t)
    raise ValueError(f"keep must be 0 or 1, got {keep}")
