"""Dense complex linear algebra helpers shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
small (a few dozen rows at most). Functions marked stack-aware also take a
stack of matrices, shape (..., d, d), and work on each matrix of the stack.
"""

from __future__ import annotations

import functools

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


def failures(checks: dict, bound: float) -> dict[str, float]:
    """The worst residual of each failing check, in the order of ``checks``: the one pass/fail rule.

    A residual, a scalar or a stack, passes when it is <= ``bound``; a NaN fails, an empty stack passes."""
    failed = {}
    for name, residual in checks.items():
        passed = residual <= bound
        if not (passed.all() if isinstance(passed, np.ndarray) else passed):  # a scalar skips the array reduction
            failed[name] = float(np.max(residual))
    return failed


def require(residual, bound: float, what: str, error: type[Exception] = ValueError) -> None:
    """Unless ``residual`` passes ``failures``, raise ``error`` naming the check, its worst residual and the bound."""
    for worst in failures({what: residual}, bound).values():
        raise error(f"{what}: residual {worst:.3e} > tol {bound:.3e}")


def bound(tol: float, d: int) -> float:
    """Bound on a residual of a d-dimensional result computed from values that passed at ``tol``.

    The one growth rule of the package: no operation here grows a max-norm
    residual by more than d**2.  Conjugation by a unitary grows it by at most
    d (|U E U^dagger|_max <= |E|_op <= d |E|_max), and so does tracing out a
    d-dimensional factor (a sum of d entries).  A matrix entrywise within tol
    of a unitary has unitarity residual up to 2 sqrt(d) tol, and a channel on
    d_in dimensions grows a residual by d_in**2 (through the trace norm).  The
    term 8 d**3 ulps, which does not shrink with tol, is the rounding of the
    d**3 products; a direct distance, grown by nothing, gets tol + bound(0, d).
    """
    return d * d * tol + 8 * d**3 * 2.0**-52  # 2**-52: the machine epsilon of float64


def hermiticity_residual(m: np.ndarray) -> float | np.ndarray:
    return norm_max(m - dag(m))


def unitarity_residual(u: np.ndarray) -> float | np.ndarray:
    return norm_max(dag(u) @ u - identity(u.shape[-1]))


#: A scalar entry of ``qubit_matrix``: a Python float or complex, which np.float64 and np.complex128 are too.
_SCALAR = (float, complex)


def qubit_matrix(a, b, c, d) -> np.ndarray:
    """The 2x2 matrix [[a, b], [c, d]]; entries that are arrays broadcast
    to a stack of matrices.  Four scalar entries make one ``np.array`` call,
    which stores each as the stack's assignments do."""
    if isinstance(a, _SCALAR) and isinstance(b, _SCALAR) and isinstance(c, _SCALAR) and isinstance(d, _SCALAR):
        return np.array([[a, b], [c, d]], dtype=complex)
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def eigh(m: np.ndarray, tol: float = EPS) -> tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of a Hermitian matrix with deterministic conventions; stack-aware.

    Eigenvalues come out descending, ties in the reverse of LAPACK's order;
    column j of ``vectors`` pairs with ``values[..., j]``.  Its phase makes a
    pivot real and positive: the first entry of largest modulus (>= 1/sqrt(d))
    of LAPACK's vector, chosen before the fix, so a near-tie of moduli may leave
    another entry of the output largest.  The pivot is divided by ``np.hypot``
    of its parts, which rounds as the scalar ``abs`` does; the SIMD ``np.abs``
    may differ in the last bit.

    Raises ValueError if ``m`` is not square or not Hermitian within ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    require(hermiticity_residual(m), tol, "matrix is not Hermitian")
    values, vectors = np.linalg.eigh((m + dag(m)) / 2)
    values, vectors = values[..., ::-1], vectors[..., ::-1]
    k = np.abs(vectors).argmax(axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, k, axis=-2)
    return values, vectors * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def eigenphases(system: tuple[np.ndarray, np.ndarray], t) -> tuple[np.ndarray, np.ndarray]:
    """``(vectors, phases)`` with exp(-i h t) = vectors . diag(phases) . vectors^dagger, for Hermitian h.

    ``system`` is ``eigh(h)``, ``(values, vectors)``, so a caller that holds
    it pays no decomposition.  ``t`` is a real time or an array of times; for
    an array of shape S, ``phases`` has shape S + (d,).  Raises ValueError if
    a product t * lambda is not finite: its phase is undefined.
    """
    values, vectors = system
    angles = np.multiply.outer(t, values)
    if not np.isfinite(angles).all():
        raise ValueError(f"t * eigenvalue of H is not finite: |t| up to {np.max(np.abs(t)):.3e}, "
                         f"|eigenvalue| up to {np.max(np.abs(values)):.3e}")
    return vectors, np.exp(-1j * angles)


def propagate(vectors: np.ndarray, phases: np.ndarray, *ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """U and U x U^dagger for each x of ``ops``, where U = vectors . diag(phases) . vectors^dagger.

    ``(vectors, phases)`` is what ``eigenphases`` returns; for phases of shape
    S + (d,) each result is a stack of shape S + (d, d).  In the eigenbasis,
    U x U^dagger = V (P o V^dagger x V) V^dagger with P_jk = p_j conj(p_k), so a
    time costs one entrywise product.  Conjugation by V acts on a row-major
    flattened matrix as kron(V, conj V), so over the whole grid it is one 2-D
    product, and so is U itself.
    """
    d, stack = vectors.shape[-1], phases.shape[:-1]
    vv = kron(vectors, vectors.conj())  # [i*d + j, k*d + l] = V_ik conj(V_jl): X -> V X V^dagger
    u = phases.reshape(-1, d) @ vv[:, :: d + 1].T  # the columns k*d + k: U_ij = sum_k V_ik p_k conj(V_jk)
    p = (phases[..., :, None] * phases[..., None, :].conj()).reshape(-1, d * d)
    a = np.reshape(ops, (len(ops), d * d)) @ vv.conj()  # row m: V^dagger x_m V, flattened
    out = (a[:, None, :] * p).reshape(-1, d * d) @ vv.T
    return (u.reshape(stack + (d, d)), *out.reshape((len(ops),) + stack + (d, d)))


def expm_hermitian_generator(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via one eigendecomposition of h.

    ``t`` is a real time or an array of times; for an array of shape S the
    result is the stack of shape S + h.shape.  Unitary up to rounding for
    any real t.
    """
    return propagate(*eigenphases(eigh(h), t))[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, each entry one product as ``np.kron`` forms it."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


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
