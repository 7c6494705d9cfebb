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
    the stack, so the stack passes exactly when every matrix does.  A single
    qubit that ``_qubit_certificate`` proves valid passes at once; any other
    input gets the residuals, so no verdict or residual depends on it.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return {"square": float("inf")}
    if m.shape == (2, 2) and _qubit_certificate(m, tol):
        return {}
    skew = m - dag(m)
    res = {
        "hermitian": float(abs(skew).max(initial=0.0)),
        "unit_trace": float(abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0)),
    }
    if math.isfinite(res["hermitian"]):  # else a non-finite entry, on which LAPACK may not converge
        # the Hermitian part: (m + m^dagger) / 2 may overflow, and m / 2 + m^dagger / 2 rounds a subnormal entry
        res["positive"] = _positivity_residual(m - skew / 2, tol)
    return failures(res, tol)


def _certificate_margin(d: int, norm: float) -> float:
    """What a positivity certificate adds to -lambda_min of a d x d Hermitian matrix, ``norm`` its max-norm or
    a bound on its 2-norm: bound(0, d) times d ``norm`` covers the rounding of the certificate and of LAPACK's
    spectrum, and the smallest normal float (2**-1022) their underflow."""
    return bound(0, d) * d * norm + 2.0**-1022


def _qubit_certificate(m: np.ndarray, tol: float) -> bool:
    """True only if the single 2x2 ``m`` passes every check of ``density_violations`` at ``tol``; False leaves the
    verdict to the residuals.  It reads the four entries once, as Python scalars.

    The Hermitian and unit-trace residuals are the sums the array path forms, but Python's ``abs`` and numpy's
    SIMD ``np.abs`` may round their moduli up to 2 ulps apart, so the three checks pass at tol less 4 ulps of tol
    (and so nothing passes at tol 0, at the smallest subnormal or at inf).  Positivity is -lambda_min of the
    Hermitian part plus ``_certificate_margin``, with lambda_min = mean - radius the closed form of
    ``trace_distance`` on the entries LAPACK reads (real diagonal, lower triangle).  A non-finite entry fails a
    check or raises OverflowError.
    """
    (a, b), (c, d) = m.tolist()
    try:
        hermitian = max(2 * abs(a.imag), 2 * abs(d.imag), abs(b - c.conjugate()))
        unit_trace = abs(a + d - 1)
        mean = (a.real + d.real) / 2
        radius = math.hypot((a.real - d.real) / 2, abs(c - (c - b.conjugate()) / 2))
    except OverflowError:  # abs of a complex whose modulus overflows
        return False
    positive = radius - mean + _certificate_margin(2, abs(mean) + radius)
    cut = tol - 4 * math.ulp(tol)
    return not failures({"hermitian": hermitian, "unit_trace": unit_trace, "positive": positive}, cut)


def qubit_trace_and_min_eigenvalue(m: np.ndarray) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """The trace of a 2x2 ``m`` and the smallest eigenvalue of its Hermitian part (m + m^dagger)/2; stack-aware.

    The eigenvalue is the closed form of ``trace_distance``, mean - hypot(half the difference of the diagonal,
    modulus of the off-diagonal entry), in real float operations on the entries of (m + m^dagger)/2 and with
    libm's hypot: ``np.hypot``, and for Python floats the ``abs`` of a complex (``math.hypot`` rounds apart).
    Sum and difference are halved after they are formed, which is exact but for a subnormal; neither overflows
    where (m + m^dagger)/2 is finite.  Where it is not, the eigenvalue is -inf, never NaN.  A single matrix is
    read once as Python scalars and gives numpy scalars, bit for bit its item of a stack.
    """
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        trace = np.complex128(0.0 + a.real + d.real, 0.0 + a.imag + d.imag)  # numpy's sum starts from +0
        hr, hi = c.real + b.real, c.imag - b.imag  # twice the lower entry of the Hermitian part
        # (m + m^dagger)/2 is finite exactly where these six are
        if not all(map(math.isfinite, (a.real + a.real, a.imag, d.real + d.real, d.imag, hr, hi))):
            return trace, np.float64(-math.inf)
        radius = abs(complex((a.real - d.real) * 0.5, abs(complex(hr * 0.5, hi * 0.5))))
        return trace, np.float64((a.real + d.real) * 0.5 - radius)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    hr, hi = c.real + b.real, c.imag - b.imag
    finite = np.isfinite([a.real + a.real, a.imag, d.real + d.real, d.imag, hr, hi]).all(axis=0)
    radius = np.hypot((a.real - d.real) * 0.5, np.hypot(hr * 0.5, hi * 0.5))
    return m.trace(axis1=-2, axis2=-1), np.where(finite, (a.real + d.real) * 0.5 - radius, -np.inf)


def _positivity_residual(h: np.ndarray, tol: float) -> float:
    """-lambda_min of the Hermitian ``h`` from LAPACK's spectrum, the worst of a stack, or -inf for a stack
    that a Cholesky certificate proves to pass at ``tol``.

    A Cholesky factor of h + (tol - margin) I shows lambda_min(h) >= margin - tol less the factorisation's
    rounding (Rump, BIT 46, 2006).  The margin, ``_certificate_margin`` of |h|_max (d |h|_max >= |h|_2), covers
    that rounding and the spectrum's, so the certificate passes only a stack whose spectrum passes; any other stack
    gets the spectrum.  So does one matrix: a single qubit has had its own certificate, and a larger one costs
    less without.
    """
    if h.ndim > 2:
        d, norm = h.shape[-1], float(np.abs(h).max(initial=0.0))
        shift = tol - _certificate_margin(d, norm)
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
    one.  Only ``_derived_state`` builds one without validation.
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


def _derived_state(mat: np.ndarray, tol: float) -> DensityMatrix:
    """A DensityMatrix of the complex ``mat``, not validated: a state computed from a valid one by steps that
    ``linalg.bound``'s growth rule covers (a partial trace, or a conjugation by a checked unitary), so it passes
    at ``tol``, the bound that rule gives, up to rounding."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "mat", mat)
    object.__setattr__(state, "tol", tol)
    return state


@dataclass(frozen=True, eq=False)
class DiagonalizedState:
    """A qubit state written as basis . diag . basis^dagger, ``eig_plus`` >= ``eig_minus``.

    ``r`` is the Bloch radius the eigenvalues (1 +- r) / 2 are read from."""

    r: float
    basis: np.ndarray

    @property
    def eig_plus(self) -> float:
        return (1 + self.r) / 2

    @property
    def eig_minus(self) -> float:
        return (1 - self.r) / 2


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
    and the centre also theta = 0 or pi, by the signs of the zeros.  A single
    complex 2x2 matrix is read once as Python scalars: x, y, z and r are the
    same float operations in the same order, and the angles keep numpy's
    arctan2 and remainder, so every bit is that of the array formula
    (``math.atan2`` may round apart from numpy's own vectorized arctan2).
    """
    m = np.asarray(m)
    if m.shape == (2, 2) and m.dtype == complex:
        (a, b), (c, d) = m.tolist()
        x, y, z = (b + c).real, c.imag - b.imag, (a - d).real
        xy = x * x + y * y
        r, theta = np.float64(min(math.sqrt(xy + z * z), 1.0)), np.arctan2(math.sqrt(xy), z)
    else:
        x = (m[..., 0, 1] + m[..., 1, 0]).real
        y = m[..., 1, 0].imag - m[..., 0, 1].imag
        z = (m[..., 0, 0] - m[..., 1, 1]).real
        r = np.minimum(np.sqrt(x * x + y * y + z * z), 1.0)
        theta = np.arctan2(np.sqrt(x * x + y * y), z)  # arccos(z / r) loses every digit of a theta near 0 or pi
    phi = np.arctan2(y, x) % (2 * np.pi)
    return r, theta, phi % (2 * np.pi)  # a tiny negative angle rounds to 2 pi in the first remainder, to 0 here


def diagonalize_state(d: DensityMatrix, plus_first: bool) -> DiagonalizedState:
    """Diagonalize a qubit state with the fixed basis-sign convention.

    The basis puts ``eig_plus`` first on the diagonal if ``plus_first``, else
    ``eig_minus``; its sign layout makes the closed-form Kraus expressions
    downstream come out entrywise deterministic.  It is built from the angles
    of ``bloch_angles`` at every input: any basis diagonalizes the maximally
    mixed state.  For a stack of states the fields are stacks too.

    A single state takes cos, sin and e^{i phi} from ``math`` on Python
    floats, as numpy's float64 cos and sin call the same libm, and forms each
    real-by-complex product as numpy promotes it, ``complex(x, 0.0) * e``:
    every bit is that of the array formula.
    """
    if d.dim != 2:
        raise ValueError(f"diagonalize_state needs a qubit, got dim {d.dim}")
    r, theta, phi = bloch_angles(d.mat)
    if d.mat.shape == (2, 2):
        c, s, e = math.cos(theta / 2), math.sin(theta / 2), complex(math.cos(phi), math.sin(phi))
        if plus_first:
            basis = qubit_matrix(c, complex(-s, 0.0) * e.conjugate(), complex(s, 0.0) * e, c)
        else:
            basis = qubit_matrix(-s, complex(c, 0.0) * e.conjugate(), complex(c, 0.0) * e, s)
        return DiagonalizedState(r=r, basis=basis)
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    if plus_first:
        basis = qubit_matrix(c, -s * e.conjugate(), s * e, c)
    else:
        basis = qubit_matrix(-s, c * e.conjugate(), c * e, s)
    return DiagonalizedState(r=r, basis=basis)


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
