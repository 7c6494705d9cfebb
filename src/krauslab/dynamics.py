"""Joint system-environment evolution, initial correlations, and the
controlled-NOT scenario with its analytic closed forms."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .kraus import KrausSet, _closed_form_pair, apply_kraus_raw, closed_form_qubit_kraus, factorable_kraus
from .linalg import (
    EPS,
    bound,
    dag,
    eigenphases,
    eigh,
    identity,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_z,
    propagate,
    qubit_matrix,
    require,
    unitarity_residual,
)
from .states import DensityMatrix, _derived_state, bloch_angles, trace_distance


class PropagatorError(ValueError):
    """Raised when the computed U(t) = V diag(p) V^dagger is not unitary to rounding: a numeric check failed."""


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint system (x) environment state with dimension bookkeeping.

    Basis ordering is system-major: row index is i_sys * d_e + i_env.  ``mat``
    is a validated or a derived state (see ``reduced_dynamics``); its reduced
    states are derived, at the bounds of ``linalg.bound``'s growth rule.
    """

    mat: DensityMatrix
    d_i: int
    d_e: int

    def __post_init__(self):
        if self.mat.dim != self.d_i * self.d_e:
            raise ValueError(
                f"joint dim {self.mat.dim} does not equal d_i * d_e = {self.d_i * self.d_e}"
            )

    def reduced_system(self) -> DensityMatrix:
        rho = partial_trace(self.mat.mat, (self.d_i, self.d_e), keep=0)
        return _derived_state(rho, bound(self.mat.tol, self.d_e))

    def reduced_environment(self) -> DensityMatrix:
        rho = partial_trace(self.mat.mat, (self.d_i, self.d_e), keep=1)
        return _derived_state(rho, bound(self.mat.tol, self.d_i))


@dataclass(frozen=True, eq=False)
class ReducedDynamics:
    """The reduced dynamics of ``s`` under U(t): rho_i(t) = tr_e{U rho_ie U^dagger}.

    It splits as the factorable Kraus part acting on rho_i(0) plus the
    inhomogeneous term tr_e{U cor U^dagger} of the correlation operator
    ``cor``.  For an array of times, u, joint_t, rho_i_t and inhom are stacks.
    """

    u: np.ndarray
    joint_t: CompositeState
    rho_i_t: DensityMatrix
    rho_i0: DensityMatrix
    rho_e0: DensityMatrix
    cor: np.ndarray
    inhom: np.ndarray

    def decomposition_residual(self) -> float | np.ndarray:
        """|rho_i(t) - (factorable part + inhomogeneous term)|_max, zero up to rounding."""
        k = factorable_kraus(self.u, self.rho_e0, d_i=self.rho_i0.dim)
        return norm_max(self.rho_i_t.mat - apply_kraus_raw(k, self.rho_i0.mat) - self.inhom)


def reduced_dynamics(h: np.ndarray, s: CompositeState, t) -> ReducedDynamics:
    """The reduced dynamics of ``s`` under U(t) = exp(-iht), from one eigendecomposition of ``h``.

    The CNOT constant ``cnot_hamiltonian()`` takes the eigensystem that
    ``cnot_eigensystem`` computes once per process; any other ``h``, a copy of
    that constant included, is decomposed on every call.  ``t`` is a time or
    an array of times.  The joint state and the correlation operator are
    evolved in the eigenbasis of ``h`` (``linalg.propagate``), so a grid costs
    no product per time.

    The propagator is checked once per call (``_check_propagator``, which
    raises PropagatorError), and no state is validated again: the evolved
    joint state, rho_i(t), rho_i(0) and rho_e(0) are derived from ``s`` at the
    bounds of ``linalg.bound``'s growth rule.
    """
    if np.shape(h) != (s.mat.dim, s.mat.dim):
        raise ValueError(f"Hamiltonian shape {np.shape(h)} does not match joint dim {s.mat.dim}")
    rho_i0, rho_e0 = s.reduced_system(), s.reduced_environment()
    cor = correlation_operator(s, rho_i0, rho_e0)
    system = cnot_eigensystem() if h is cnot_hamiltonian() else eigh(h)
    vectors, phases = eigenphases(system, t)
    _check_propagator(vectors, phases)
    u, joint, cor_t = propagate(vectors, phases, s.mat.mat, cor)
    joint_t = CompositeState(_derived_state(joint, bound(s.mat.tol, s.mat.dim)), s.d_i, s.d_e)
    inhom = partial_trace(cor_t, (s.d_i, s.d_e), keep=0)
    return ReducedDynamics(u, joint_t, joint_t.reduced_system(), rho_i0, rho_e0, cor, inhom)


def _check_propagator(vectors: np.ndarray, phases: np.ndarray) -> None:
    """Raise PropagatorError unless U(t) = V diag(p) V^dagger is unitary to rounding at every time of the grid.

    A conjugation by any U keeps a state Hermitian and positive; only its trace moves, by up to the operator
    norm of V^dagger V - I on each side of the conjugation and by max | |p_j|^2 - 1 | in between.  That norm is
    at most the largest absolute row sum of the Hermitian V^dagger V - I, allowed bound(0, 1) per entry of a
    row, and each |p_j| - 1 is allowed bound(0, 1) (eigh's rounding takes about 11 and 1 ulps for d <= 6).  So
    a passing propagator moves a trace by at most 16 (d + 1) ulps, within the bound(0, d) = 8 d**3 ulps of an
    evolved state for d >= 2.
    """
    d = vectors.shape[-1]
    gram = np.abs(dag(vectors) @ vectors - identity(d)).sum(axis=-1).max()
    require(gram, d * bound(0, 1), "propagator is not unitary (eigenvectors of H)", PropagatorError)
    require(np.abs(np.abs(phases) - 1), bound(0, 1), "propagator is not unitary (phase modulus)", PropagatorError)


def evolve_joint(h: np.ndarray, s: CompositeState, t) -> CompositeState:
    """Unitary evolution of the joint state: U(t) rho U(t)^dagger, U = exp(-iht).

    For an array of times the result holds the stack of evolved states.
    """
    return reduced_dynamics(h, s, t).joint_t


def correlation_operator(s: CompositeState, rho_i: DensityMatrix, rho_e: DensityMatrix) -> np.ndarray:
    """rho_ie - rho_i (x) rho_e: the deviation of the joint state from product form.

    Traceless and Hermitian; both partial traces vanish.  ``rho_i`` and
    ``rho_e`` are the reduced states of ``s``.
    """
    return s.mat.mat - kron(rho_i.mat, rho_e.mat)


@functools.lru_cache(maxsize=None)
def cnot_hamiltonian() -> np.ndarray:
    """Two-qubit generator whose exponential is the CNOT-type evolution.

    H = sigma_x (x) (I - sigma_z)/2 + I (x) (I + sigma_z)/2, system-major
    basis |00>, |01>, |10>, |11>.  Shared between calls and therefore read-only.
    """
    h = kron(pauli_x, (identity(2) - pauli_z) / 2) + kron(identity(2), (identity(2) + pauli_z) / 2)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=None)
def cnot_eigensystem() -> tuple[np.ndarray, np.ndarray]:
    """``eigh(cnot_hamiltonian())``, ``(values, vectors)``, computed once per process.

    Shared between calls and therefore read-only.  Only the package's CNOT
    constant shares its eigensystem: the cache is keyed on that one array,
    never on the contents of another.
    """
    values, vectors = eigh(cnot_hamiltonian())
    values.flags.writeable = vectors.flags.writeable = False
    return values, vectors


def cnot_unitary(t) -> np.ndarray:
    """Closed form of exp(-i H t) for the CNOT Hamiltonian; a stack for an array of times."""
    c, s, p = np.cos(t), np.sin(t), np.exp(-1j * t)
    u = np.zeros(np.shape(t) + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 2, 2] = p
    u[..., 1, 1] = u[..., 3, 3] = c
    u[..., 1, 3] = u[..., 3, 1] = -1j * s
    return u


@dataclass(frozen=True)
class CnotScenario:
    """Correlated two-qubit scenario: joint state diag((1-r0)/2, 0, 0, (1+r0)/2).

    r0 should be strictly inside (0, 1); near an endpoint we warn rather than reject.  Outside [0, 1]
    r0 is accepted within EPS + bound(0, 1), the allowance of a direct distance: the float nearest to EPS
    above 1 lies more than EPS above it, and is accepted like EPS below 0.  At r0 = 1 the joint state is
    the product |11><11|; at r0 = 0 it is classically correlated, but both reduced states are maximally
    mixed and r_t(k*pi) = 0.
    """

    r0: float

    def __post_init__(self):
        require(np.maximum(-self.r0, self.r0 - 1), EPS + bound(0, 1), "r0 outside [0, 1]")
        if self.r0 <= EPS or self.r0 >= 1 - EPS:
            warnings.warn(
                f"r0 = {self.r0} is at an endpoint: the joint state is "
                + ("factorable and the inhomogeneous term vanishes" if self.r0 > 0.5
                   else "classically correlated, but r_t falls to r0 at t = k*pi"),
                stacklevel=3,  # past the dataclass-generated __init__ to the caller
            )

    def initial_joint(self, tol: float = EPS) -> CompositeState:
        """The joint state, validated at ``tol`` like a decoded one."""
        mat = np.diag([(1 - self.r0) / 2, 0.0, 0.0, (1 + self.r0) / 2]).astype(complex)
        return CompositeState(mat=DensityMatrix(mat, tol=tol), d_i=2, d_e=2)

    def initial_reduced(self) -> DensityMatrix:
        return DensityMatrix(0.5 * (identity(2) - self.r0 * pauli_z))

    def r_t(self, t):
        """Bloch radius of the reduced state at time t (or at each of an array of times)."""
        return np.sqrt(np.sin(t) ** 2 + self.r0**2 * np.cos(t) ** 2)


def cnot_analytic_rho(sc: CnotScenario, t) -> DensityMatrix:
    """Closed form of the reduced system state at time t; a stack for an array of times."""
    st2, ct2 = np.sin(t) ** 2, np.cos(t) ** 2
    off = -0.5j * (1 + sc.r0) * np.sin(t) * np.cos(t)
    mat = qubit_matrix(0.5 * (1 + st2 - sc.r0 * ct2), off, -off, 0.5 * (1 + sc.r0) * ct2)
    return DensityMatrix(mat, tol=bound(EPS, 2))


def cnot_analytic_delta_rho(sc: CnotScenario, t) -> np.ndarray:
    """Closed form of the inhomogeneous term for the CNOT scenario; a stack for an array of times."""
    pre = 0.25 * (1 - sc.r0**2)
    return pre * qubit_matrix(2 * np.sin(t) ** 2, -1j * np.sin(2 * t), 1j * np.sin(2 * t), -2 * np.sin(t) ** 2)


def cnot_analytic_kraus(sc: CnotScenario, t) -> KrausSet:
    """The paper's Kraus pair for the CNOT scenario: the qubit closed form on its two reduced states.

    It maps the initial reduced state to the analytic state at time t even
    though the inhomogeneous term is nonzero, and it is defined at every t.
    For an array of times the set is a stack, one pair per time.
    """
    return closed_form_qubit_kraus(sc.initial_reduced(), cnot_analytic_rho(sc, t))


#: The columns of ``sweep_columns``, in table order.
SWEEP_COLUMNS = (
    "t",
    "r(t)",
    "theta(t)",
    "phi(t)",
    "r_t",
    "delta_rho_maxnorm",
    "completeness_residual",
    "reconstruction_residual",
    "trace_distance_analytic_vs_numeric",
)


def sweep_columns(
    h: np.ndarray, joint: CompositeState, ts: np.ndarray, sc: CnotScenario | None = None
) -> dict[str, np.ndarray]:
    """The sweep table over the time grid ``ts``, one array per SWEEP_COLUMNS name.

    One eigendecomposition of ``h`` gives U(t) on the whole grid (the CNOT
    constant's is computed once per process, see ``reduced_dynamics``), and
    every column is computed on the stack of times at once.  The Bloch angles
    and the Kraus pair, the closed form of ``closed_form_qubit_kraus`` from
    rho_i(0), are read from the CNOT scenario's closed-form state if ``sc`` is
    given and from the numeric state otherwise; the grid's angles are read
    once, for the columns and the pair alike.  Both are checked against the
    numeric state.  A quantity that does not exist is NaN: the Bloch and Kraus
    columns unless d_i = 2, and the trace distance without a closed form.
    """
    ts = np.asarray(ts, dtype=float)
    rd = reduced_dynamics(h, joint, ts)
    numeric, rho0 = rd.rho_i_t, rd.rho_i0
    cols = {"t": ts, "delta_rho_maxnorm": norm_max(rd.inhom)}
    if joint.d_i == 2:
        if sc is not None:
            analytic = cnot_analytic_rho(sc, ts)
            cols["trace_distance_analytic_vs_numeric"] = trace_distance(analytic, numeric)
        else:
            analytic = numeric
        angles = bloch_angles(analytic.mat)
        cols["r(t)"], cols["theta(t)"], cols["phi(t)"] = angles
        cols["r_t"] = cols["r(t)"].copy() if sc is None else sc.r_t(ts)
        k = _closed_form_pair(bloch_angles(rho0.mat), angles)
        cols["completeness_residual"] = k.completeness_residual()
        cols["reconstruction_residual"] = norm_max(apply_kraus_raw(k, rho0.mat) - numeric.mat)
    return {name: cols[name] if name in cols else np.full(ts.shape, np.nan) for name in SWEEP_COLUMNS}


def factor_local_unitary(
    u: np.ndarray, dims: tuple[int, int], tol: float = EPS
) -> tuple[np.ndarray, np.ndarray, float]:
    """The nearest product U_i (x) U_e to a joint unitary, and its distance |U_i (x) U_e - U|_max.

    Uses the nearest-Kronecker-product rearrangement: the reshuffled matrix
    is rank one exactly when the unitary is a tensor product.  Its leading
    singular pair gives the factors.  ``tol`` bounds only the unitarity of
    the input; U is factorable when the returned distance is within the
    caller's tolerance (plus the rounding of ``bound(0, d)``).
    """
    d_i, d_e = dims
    if min(dims) < 1:
        raise ValueError(f"dims must be positive, got {list(dims)}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (d_i * d_e, d_i * d_e):
        raise ValueError(f"unitary shape {u.shape} does not match dims {dims}")
    require(unitarity_residual(u), bound(tol, d_i * d_e), "input is not unitary")
    # Van Loan rearrangement: row block index pairs with column block index.
    r = u.reshape(d_i, d_e, d_i, d_e).transpose(0, 2, 1, 3).reshape(d_i * d_i, d_e * d_e)
    left, _, right = np.linalg.svd(r)
    # The rank-one factors are the unitaries up to scale; take polar parts.
    u_i = _polar_unitary(left[:, 0].reshape(d_i, d_i))
    u_e = _polar_unitary(right[0, :].reshape(d_e, d_e))
    # Absorb the remaining global phase into the system factor.
    phase = np.trace(dag(kron(u_i, u_e)) @ u) / (d_i * d_e)
    u_i = u_i * (phase / abs(phase))
    return u_i, u_e, norm_max(kron(u_i, u_e) - u)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(m)
    return w @ vh
