"""Dense complex linear algebra helpers shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
small (a few dozen rows at most). Functions marked stack-aware also take a
stack of matrices, shape (..., d, d), and work on each matrix of the stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Default absolute tolerance (max-norm) used wherever none is given.
EPS = 1e-10

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)


@functools.lru_cache(maxsize=None)
def identity(d: int) -> np.ndarray:
    """The d x d identity, shared between calls and therefore read-only."""
    m = np.eye(d, dtype=complex)
    m.flags.writeable = False
    return m


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; stack-aware."""
    return m.conj().swapaxes(-1, -2)


def norm_max(m: np.ndarray) -> float | np.ndarray:
    """Entrywise max-abs norm; stack-aware (one norm per matrix of a stack)."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def require(residual, bound: float, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless every residual is <= ``bound``: a NaN fails, an empty array passes.

    This is the one pass/fail rule for residuals; the message names the
    check (``what``), its worst residual and the bound.
    """
    passed = residual <= bound
    if not (passed.all() if isinstance(passed, np.ndarray) else passed):  # a scalar skips the array reduction
        raise error(f"{what}: residual {np.max(residual):.3e} > tol {bound:.3e}")


def hermiticity_residual(m: np.ndarray) -> float | np.ndarray:
    return norm_max(m - dag(m))


def unitarity_residual(u: np.ndarray) -> float | np.ndarray:
    return norm_max(dag(u) @ u - identity(u.shape[-1]))


def qubit_matrix(a, b, c, d) -> np.ndarray:
    """The 2x2 matrix [[a, b], [c, d]]; entries that are arrays broadcast
    to a stack of matrices."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


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
    require(hermiticity_residual(m), tol, "matrix is not Hermitian")
    values, vectors = np.linalg.eigh((m + dag(m)) / 2)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = _fix_column_phases(vectors[:, order])
    return EigenDecomposition(values=values, vectors=vectors)


def expm_hermitian_generator(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via one eigendecomposition of h.

    ``t`` is a real time or an array of times; for an array of shape S the
    result is the stack of shape S + h.shape.  Unitary up to rounding for
    any real t.
    """
    decomp = eigh(h)
    phases = np.exp(-1j * np.multiply.outer(t, decomp.values))
    return (decomp.vectors * phases[..., None, :]) @ dag(decomp.vectors)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a (d0*d1) x (d0*d1) matrix; stack-aware.

    ``dims = (d0, d1)`` with the first factor index-major (row index is
    i0*d1 + i1).  ``keep`` selects the surviving factor, 0 or 1.
    """
    d0, d1 = dims
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (d0 * d1, d0 * d1):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(m.shape[:-2] + (d0, d1, d0, d1))
    if keep == 0:
        return np.einsum("...iaja->...ij", t)
    if keep == 1:
        return np.einsum("...aiaj->...ij", t)
    raise ValueError(f"keep must be 0 or 1, got {keep}")
