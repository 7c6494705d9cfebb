"""Validated density matrices and the Bloch parametrization of qubit states."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS, bound, dag, failures, identity, pauli_x, pauli_y, pauli_z, qubit_matrix


class StateValidationError(ValueError):
    """Raised when a matrix fails the density-matrix invariants.

    ``violations`` maps an invariant name to its residual; ``tol`` is the bound it missed.
    """

    def __init__(self, violations: dict[str, float], tol: float):
        self.violations = violations
        details = ", ".join(f"{name} residual {res:.3e} > tol {tol:.3e}" for name, res in violations.items())
        super().__init__(f"not a valid density matrix: {details}")


def density_violations(m: np.ndarray, tol: float = EPS) -> dict[str, float]:
    """Residuals of the violated density-matrix invariants (empty if valid).

    Stack-aware: for a stack of matrices each residual is the worst over
    the stack, so the stack passes exactly when every matrix does.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return {"square": float("inf")}
    skew = m - dag(m)
    res = {
        "hermitian": float(abs(skew).max(initial=0.0)),
        "unit_trace": float(abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0)),
    }
    if math.isfinite(res["hermitian"]):  # else a non-finite entry, on which LAPACK may not converge
        # the Hermitian part: (m + m^dagger) / 2 may overflow, and m / 2 + m^dagger / 2 rounds a subnormal entry
        res["positive"] = _positivity_residual(m - skew / 2, tol)
    return failures(res, tol)


def _positivity_residual(h: np.ndarray, tol: float) -> float:
    """-lambda_min of the Hermitian ``h`` from LAPACK's spectrum, the worst of a stack, or -inf for a stack
    that a Cholesky certificate proves to pass at ``tol``.

    A Cholesky factor of h + (tol - margin) I shows lambda_min(h) >= margin - tol less the factorisation's
    rounding (Rump, BIT 46, 2006).  The margin, bound(0, d) times d |h|_max >= |h|_2 plus the smallest
    normal float for underflow, covers that rounding and the spectrum's, so the certificate passes only a
    stack whose spectrum passes; any other stack gets the spectrum.  So does one matrix: it costs less.
    """
    if h.ndim > 2:
        d, norm = h.shape[-1], float(np.abs(h).max(initial=0.0))
        shift = tol - bound(0, d) * d * norm - 2.0**-1022  # 2**-1022: the smallest normal float64
        try:  # h + shift I must not overflow, and the factor must be finite: a NaN pivot does not raise
            if math.isfinite(norm + abs(shift)) and cmath.isfinite(np.linalg.cholesky(h + shift * identity(d)).sum()):
                return -math.inf
        except np.linalg.LinAlgError:
            pass
    return -float(np.linalg.eigvalsh(h).min(initial=np.inf))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive semidefinite matrix.

    ``mat`` may also be a stack of states, shape (..., d, d), validated as
    one.
    """

    mat: np.ndarray
    tol: float = field(default=EPS, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        if violations := density_violations(mat, tol=self.tol):
            raise StateValidationError(violations, self.tol)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def validate_density(m: np.ndarray, tol: float = EPS) -> DensityMatrix:
    """Validate a raw matrix into a DensityMatrix; StateValidationError on failure."""
    return DensityMatrix(np.asarray(m, dtype=complex), tol=tol)


@dataclass(frozen=True, eq=False)
class DiagonalizedState:
    """A qubit state written as basis . diag . basis^dagger, ``eig_plus`` >= ``eig_minus``.

    ``r`` is the Bloch radius the eigenvalues (1 +- r) / 2 were built from."""

    r: float
    eig_plus: float
    eig_minus: float
    basis: np.ndarray


def bloch_matrix(r: float, theta: float, phi: float) -> np.ndarray:
    """(I + r n . sigma) / 2 with n = (sin theta cos phi, sin theta sin phi, cos theta); not validated.

    The inverse of ``bloch_angles``, for one state.
    """
    x, y, z = (r * c for c in (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))
    return 0.5 * (identity(2) + x * pauli_x + y * pauli_y + z * pauli_z)


def bloch_angles(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) of a qubit density matrix; stack-aware.

    The components are read off the matrix entries, x = tr(rho sigma_x)
    = Re(rho_01 + rho_10) and so on, and the angles are arctan2's on them with
    no threshold: a state on the z axis (x = y = 0 exactly) gets phi = 0 or pi,
    and the centre also theta = 0 or pi, by the signs of the zeros.
    """
    m = np.asarray(m)
    x = (m[..., 0, 1] + m[..., 1, 0]).real
    y = m[..., 1, 0].imag - m[..., 0, 1].imag
    z = (m[..., 0, 0] - m[..., 1, 1]).real
    r = np.minimum(np.sqrt(x * x + y * y + z * z), 1.0)
    theta = np.arctan2(np.sqrt(x * x + y * y), z)  # arccos(z / r) loses every digit of a theta near 0 or pi
    return r, theta, np.arctan2(y, x) % (2 * np.pi)


def diagonalize_state(d: DensityMatrix, plus_first: bool) -> DiagonalizedState:
    """Diagonalize a qubit state with the fixed basis-sign convention.

    The basis puts ``eig_plus`` first on the diagonal if ``plus_first``, else
    ``eig_minus``; its sign layout makes the closed-form Kraus expressions
    downstream come out entrywise deterministic.  It is built from the angles
    of ``bloch_angles`` at every input: any basis diagonalizes the maximally
    mixed state.  For a stack of states the fields are stacks too.
    """
    if d.dim != 2:
        raise ValueError(f"diagonalize_state needs a qubit, got dim {d.dim}")
    r, theta, phi = bloch_angles(d.mat)
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    if plus_first:
        basis = qubit_matrix(c, -s * e.conjugate(), s * e, c)
    else:
        basis = qubit_matrix(-s, c * e.conjugate(), c * e, s)
    return DiagonalizedState(r=r, eig_plus=(1 + r) / 2, eig_minus=(1 - r) / 2, basis=basis)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float | np.ndarray:
    """Half the trace norm of (a - b); one distance per state of a stack.

    For qubits the two eigenvalues of the difference are m +- h, m its mean
    diagonal entry and h the hypot of the half-difference of the diagonal and
    the modulus of the off-diagonal entry, read as LAPACK reads them (real
    diagonal, lower triangle); half the sum of their moduli is max(|m|, h).
    A larger d takes LAPACK's spectrum.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.mat - b.mat
    if a.dim != 2:
        return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    d0, d1 = diff[..., 0, 0].real, diff[..., 1, 1].real
    return np.maximum(np.abs(d0 + d1) / 2, np.hypot((d0 - d1) / 2, np.abs(diff[..., 1, 0])))
