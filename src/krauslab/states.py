"""Validated density matrices and the Bloch parametrization of qubit states."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS, dag, eigh, identity, norm_max, pauli_x, pauli_y, pauli_z


class StateValidationError(ValueError):
    """Raised when a matrix fails the density-matrix invariants.

    ``violations`` maps an invariant name to its residual.
    """

    def __init__(self, violations: dict[str, float]):
        self.violations = violations
        details = ", ".join(f"{name} residual {res:.3e}" for name, res in violations.items())
        super().__init__(f"not a valid density matrix: {details}")


def density_violations(m: np.ndarray, tol: float = EPS) -> dict[str, float]:
    """Residuals of the violated density-matrix invariants (empty if valid)."""
    m = np.asarray(m, dtype=complex)
    out: dict[str, float] = {}
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        out["square"] = float("inf")
        return out
    # Each check is written so that a NaN residual fails it.
    herm = norm_max(m - dag(m))
    if not herm <= tol:
        out["hermitian"] = herm
    tr = abs(np.trace(m) - 1.0)
    if not tr <= tol:
        out["unit_trace"] = float(tr)
    if not math.isfinite(herm):
        return out  # a non-finite entry, on which eigvalsh may not converge
    eigs = np.linalg.eigvalsh((m + dag(m)) / 2)
    if not eigs[0] >= -tol:
        out["positive"] = float(-eigs[0])
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive semidefinite matrix."""

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
        return self.mat.shape[0]

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
            return np.diag([self.eig_minus, self.eig_plus]).astype(complex)
        return np.diag([self.eig_plus, self.eig_minus]).astype(complex)

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


def density_to_bloch(d: DensityMatrix) -> BlochVector:
    """Inverse of bloch_to_density, with fixed conventions at the degeneracies.

    r < EPS collapses to (0, 0, 0); a polar state (sin(theta) < EPS) gets
    phi = 0.
    """
    if d.dim != 2:
        raise ValueError(f"Bloch parametrization needs a qubit, got dim {d.dim}")
    x = float(np.real(np.trace(d.mat @ pauli_x)))
    y = float(np.real(np.trace(d.mat @ pauli_y)))
    z = float(np.real(np.trace(d.mat @ pauli_z)))
    r = float(np.sqrt(x * x + y * y + z * z))
    if r < EPS:
        return BlochVector(0.0, 0.0, 0.0)
    r = min(r, 1.0)
    theta = float(np.arccos(np.clip(z / r, -1.0, 1.0)))
    if r * np.sin(theta) < EPS:
        phi = 0.0
    else:
        phi = float(np.arctan2(y, x) % (2 * np.pi))
    return BlochVector(r, theta, phi)


def _basis_minus_first(theta: float, phi: float) -> np.ndarray:
    """Unitary whose first column is the low-eigenvalue eigenvector.

    Sign layout chosen so the closed-form Kraus expressions downstream come
    out entrywise deterministic.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([[-s, c * e.conjugate()], [c * e, s]], dtype=complex)


def _basis_plus_first(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([[c, -s * e.conjugate()], [s * e, c]], dtype=complex)


def diagonalize_state(d: DensityMatrix, ordering: Ordering) -> DiagonalizedState:
    """Diagonalize a qubit state with the fixed basis-sign convention.

    A maximally mixed input (r < EPS) gets the identity basis.
    """
    if d.dim != 2:
        raise ValueError(f"diagonalize_state needs a qubit, got dim {d.dim}")
    b = density_to_bloch(d)
    eig_plus, eig_minus = (1 + b.r) / 2, (1 - b.r) / 2
    if b.r < EPS:
        basis = identity(2)
    elif ordering is Ordering.MINUS_FIRST:
        basis = _basis_minus_first(b.theta, b.phi)
    else:
        basis = _basis_plus_first(b.theta, b.phi)
    return DiagonalizedState(eig_plus=eig_plus, eig_minus=eig_minus, basis=basis, ordering=ordering)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.mat - b.mat)
    return float(0.5 * np.sum(np.abs(eigs)))
