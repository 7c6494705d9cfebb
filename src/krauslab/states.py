"""Validated density matrices and the Bloch parametrization of qubit states."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS, dag, eigh, identity, pauli_x, pauli_y, pauli_z, qubit_matrix


class StateValidationError(ValueError):
    """Raised when a matrix fails the density-matrix invariants.

    ``violations`` maps an invariant name to its residual.
    """

    def __init__(self, violations: dict[str, float]):
        self.violations = violations
        details = ", ".join(f"{name} residual {res:.3e}" for name, res in violations.items())
        super().__init__(f"not a valid density matrix: {details}")


def density_violations(m: np.ndarray, tol: float = EPS) -> dict[str, float]:
    """Residuals of the violated density-matrix invariants (empty if valid).

    Stack-aware: for a stack of matrices each residual is the worst over
    the stack, so the stack passes exactly when every matrix does.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return {"square": float("inf")}
    m_dag = dag(m)
    res = {
        "hermitian": float(abs(m - m_dag).max(initial=0.0)),
        "unit_trace": float(abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0)),
    }
    if math.isfinite(res["hermitian"]):  # else a non-finite entry, on which eigvalsh may not converge
        res["positive"] = -float(np.linalg.eigvalsh((m + m_dag) / 2).min(initial=np.inf))
    # The rule of linalg.require: a residual passes when it is <= tol, and a NaN fails.
    return {name: r for name, r in res.items() if not r <= tol}


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive semidefinite matrix.

    ``mat`` may also be a stack of states, shape (..., d, d), validated as
    one; ``eigenvalues`` and ``density_to_bloch`` take a single state.
    """

    mat: np.ndarray
    tol: float = field(default=EPS, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        violations = density_violations(mat, tol=self.tol)
        if violations:
            raise StateValidationError(violations)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        return eigh(self.mat, tol=self.tol).values


def validate_density(m: np.ndarray, tol: float = EPS) -> DensityMatrix:
    """Validate a raw matrix into a DensityMatrix; StateValidationError on failure."""
    return DensityMatrix(np.asarray(m, dtype=complex), tol=tol)


@dataclass(frozen=True)
class BlochVector:
    """(r, theta, phi) parametrization of a qubit state."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not np.isfinite([self.r, self.theta, self.phi]).all():
            raise ValueError("Bloch components must be finite")
        if self.r < 0 or self.r > 1 + EPS:
            raise ValueError(f"Bloch radius {self.r} outside [0, 1]")

    def cartesian(self) -> np.ndarray:
        return self.r * np.array(
            [
                np.sin(self.theta) * np.cos(self.phi),
                np.sin(self.theta) * np.sin(self.phi),
                np.cos(self.theta),
            ]
        )


class Ordering(enum.Enum):
    """Which eigenvalue sits first on the diagonal after diagonalization."""

    MINUS_FIRST = "minus-first"
    PLUS_FIRST = "plus-first"


@dataclass(frozen=True, eq=False)
class DiagonalizedState:
    """A qubit state written as basis . diag . basis^dagger.

    ``eig_plus`` >= ``eig_minus``; the diagonal is laid out per ``ordering``.
    """

    eig_plus: float
    eig_minus: float
    basis: np.ndarray
    ordering: Ordering

    def diagonal(self) -> np.ndarray:
        if self.ordering is Ordering.MINUS_FIRST:
            return qubit_matrix(self.eig_minus, 0, 0, self.eig_plus)
        return qubit_matrix(self.eig_plus, 0, 0, self.eig_minus)

    def reconstruct(self) -> np.ndarray:
        return self.basis @ self.diagonal() @ dag(self.basis)


def bloch_matrix(v: np.ndarray) -> np.ndarray:
    """(I + v . sigma) / 2 for a real 3-vector v, not validated."""
    x, y, z = v
    return 0.5 * (identity(2) + x * pauli_x + y * pauli_y + z * pauli_z)


def bloch_to_density(b: BlochVector) -> DensityMatrix:
    """rho = (I + r . sigma) / 2."""
    # Radii within EPS of 1 can push the smallest eigenvalue barely negative.
    return DensityMatrix(bloch_matrix(b.cartesian()), tol=10 * EPS)


def bloch_angles(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) of a qubit density matrix; stack-aware.

    The components are read off the matrix entries, x = tr(rho sigma_x)
    = Re(rho_01 + rho_10) and so on.  r < EPS collapses to (0, 0, 0); a polar state
    (r sin(theta) < EPS) gets phi = 0.
    """
    m = np.asarray(m)
    x = (m[..., 0, 1] + m[..., 1, 0]).real
    y = m[..., 1, 0].imag - m[..., 0, 1].imag
    z = (m[..., 0, 0] - m[..., 1, 1]).real
    r = np.sqrt(x * x + y * y + z * z)
    off_centre = r >= EPS  # multiplying by it zeroes the angles at the centre
    r = np.minimum(np.maximum(r, EPS), 1.0)
    theta = np.arccos(np.minimum(np.maximum(z / r, -1.0), 1.0))
    phi = np.arctan2(y, x) % (2 * np.pi) * (off_centre & (r * np.sin(theta) >= EPS))
    return r * off_centre, theta * off_centre, phi


def density_to_bloch(d: DensityMatrix) -> BlochVector:
    """Inverse of bloch_to_density, with the conventions of ``bloch_angles``."""
    if d.dim != 2:
        raise ValueError(f"Bloch parametrization needs a qubit, got dim {d.dim}")
    return BlochVector(*map(float, bloch_angles(d.mat)))


def _basis_minus_first(theta, phi) -> np.ndarray:
    """Unitary whose first column is the low-eigenvalue eigenvector.

    Sign layout chosen so the closed-form Kraus expressions downstream come
    out entrywise deterministic.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    return qubit_matrix(-s, c * e.conjugate(), c * e, s)


def _basis_plus_first(theta, phi) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    return qubit_matrix(c, -s * e.conjugate(), s * e, c)


def diagonalize_state(d: DensityMatrix, ordering: Ordering) -> DiagonalizedState:
    """Diagonalize a qubit state with the fixed basis-sign convention.

    A maximally mixed input (r < EPS) gets the identity basis.  For a stack
    of states the fields are stacks too.
    """
    if d.dim != 2:
        raise ValueError(f"diagonalize_state needs a qubit, got dim {d.dim}")
    r, theta, phi = bloch_angles(d.mat)
    if ordering is Ordering.MINUS_FIRST:
        basis = _basis_minus_first(theta, phi)
    else:
        basis = _basis_plus_first(theta, phi)
    basis = np.where((r < EPS)[..., None, None], identity(2), basis)
    return DiagonalizedState(eig_plus=(1 + r) / 2, eig_minus=(1 - r) / 2, basis=basis, ordering=ordering)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float | np.ndarray:
    """Half the trace norm of (a - b); one distance per state of a stack."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.mat - b.mat)
    return 0.5 * np.abs(eigs).sum(axis=-1)
