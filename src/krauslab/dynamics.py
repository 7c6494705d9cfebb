"""Joint system-environment evolution, initial correlations, and the
controlled-NOT scenario with its analytic closed forms."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kraus import KrausSet, apply_kraus_raw, general_qubit_kraus, kraus_set, _sqrt_clamped
from .linalg import (
    EPS,
    dag,
    expm_hermitian_generator,
    identity,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_z,
    qubit_matrix,
    require,
    unitarity_residual,
)
from .states import DensityMatrix, bloch_angles, trace_distance


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Joint system (x) environment state with dimension bookkeeping.

    Basis ordering is system-major: row index is i_sys * d_e + i_env.
    """

    mat: DensityMatrix
    d_i: int
    d_e: int

    def __post_init__(self):
        if self.mat.dim != self.d_i * self.d_e:
            raise ValueError(
                f"joint dim {self.mat.dim} does not equal d_i * d_e = {self.d_i * self.d_e}"
            )

    # Tracing out a d-dimensional factor can grow the joint state's Hermiticity
    # and positivity residuals by at most a factor d.
    def reduced_system(self) -> DensityMatrix:
        rho = partial_trace(self.mat.mat, (self.d_i, self.d_e), keep=0)
        return DensityMatrix(rho, tol=self.d_e * self.mat.tol)

    def reduced_environment(self) -> DensityMatrix:
        rho = partial_trace(self.mat.mat, (self.d_i, self.d_e), keep=1)
        return DensityMatrix(rho, tol=self.d_i * self.mat.tol)


def _propagator(h: np.ndarray, s: CompositeState, t) -> np.ndarray:
    """U(t) = exp(-iht) on the joint space of ``s``; a stack for an array of times."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (s.mat.dim, s.mat.dim):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match joint dim {s.mat.dim}")
    return expm_hermitian_generator(h, t)


def _evolve(u: np.ndarray, s: CompositeState) -> CompositeState:
    evolved = u @ s.mat.mat @ dag(u)
    return CompositeState(mat=DensityMatrix(evolved, tol=100 * s.mat.tol), d_i=s.d_i, d_e=s.d_e)


def _inhomogeneous(u: np.ndarray, s: CompositeState, cor: np.ndarray) -> np.ndarray:
    """tr_e{U cor U^dagger} for the correlation operator ``cor`` of ``s``."""
    return partial_trace(u @ cor @ dag(u), (s.d_i, s.d_e), keep=0)


def evolve_joint(h: np.ndarray, s: CompositeState, t) -> CompositeState:
    """Unitary evolution of the joint state: U(t) rho U(t)^dagger, U = exp(-iht).

    For an array of times the result holds the stack of evolved states.
    """
    return _evolve(_propagator(h, s, t), s)


def correlation_operator(
    s: CompositeState, rho_i: DensityMatrix | None = None, rho_e: DensityMatrix | None = None
) -> np.ndarray:
    """rho_ie - rho_i (x) rho_e: the deviation of the joint state from product form.

    Traceless and Hermitian; both partial traces vanish.  ``rho_i`` and
    ``rho_e`` are the reduced states of ``s``, computed here if not given.
    """
    rho_i = s.reduced_system() if rho_i is None else rho_i
    rho_e = s.reduced_environment() if rho_e is None else rho_e
    return s.mat.mat - kron(rho_i.mat, rho_e.mat)


def delta_rho(h: np.ndarray, s: CompositeState, t) -> np.ndarray:
    """Inhomogeneous term: tr_e{U(t) rho_cor U(t)^dagger}.

    The obstruction to the textbook factorable-case Kraus form; traceless
    and Hermitian for every input.  A stack for an array of times.
    """
    return _inhomogeneous(_propagator(h, s, t), s, correlation_operator(s))


def cnot_hamiltonian() -> np.ndarray:
    """Two-qubit generator whose exponential is the CNOT-type evolution.

    H = sigma_x (x) (I - sigma_z)/2 + I (x) (I + sigma_z)/2, system-major
    basis |00>, |01>, |10>, |11>.
    """
    return kron(pauli_x, (identity(2) - pauli_z) / 2) + kron(identity(2), (identity(2) + pauli_z) / 2)


def cnot_unitary(t: float) -> np.ndarray:
    """Closed form of exp(-i H t) for the CNOT Hamiltonian."""
    c, s, p = np.cos(t), np.sin(t), np.exp(-1j * t)
    return np.array(
        [
            [p, 0, 0, 0],
            [0, c, 0, -1j * s],
            [0, 0, p, 0],
            [0, -1j * s, 0, c],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class CnotScenario:
    """Correlated two-qubit scenario: joint state diag((1-r0)/2, 0, 0, (1+r0)/2).

    r0 should be strictly inside (0, 1); at the endpoints the joint state is
    factorable and the scenario degenerates, so we warn rather than reject.
    """

    r0: float

    def __post_init__(self):
        if not -EPS <= self.r0 <= 1 + EPS:
            raise ValueError(f"r0 = {self.r0} outside [0, 1]")
        if self.r0 <= EPS or self.r0 >= 1 - EPS:
            warnings.warn(
                f"r0 = {self.r0} is at an endpoint: the joint state is factorable "
                "and the correlated-dynamics features are trivial",
                stacklevel=3,  # past the dataclass-generated __init__ to the caller
            )

    def initial_joint(self) -> CompositeState:
        mat = np.diag([(1 - self.r0) / 2, 0.0, 0.0, (1 + self.r0) / 2]).astype(complex)
        return CompositeState(mat=DensityMatrix(mat), d_i=2, d_e=2)

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
    return DensityMatrix(mat, tol=100 * EPS)


def cnot_analytic_delta_rho(sc: CnotScenario, t: float) -> np.ndarray:
    """Closed form of the inhomogeneous term for the CNOT scenario."""
    pre = 0.25 * (1 - sc.r0**2)
    return pre * np.array(
        [
            [2 * np.sin(t) ** 2, -1j * np.sin(2 * t)],
            [1j * np.sin(2 * t), -2 * np.sin(t) ** 2],
        ],
        dtype=complex,
    )


def cnot_analytic_kraus(sc: CnotScenario, t) -> KrausSet:
    """Closed-form two-operator Kraus set for the CNOT scenario.

    Reconstructs the analytic reduced state from the initial reduced state
    even though the inhomogeneous term is nonzero.  For an array of times
    the set is a stack, one pair per time; every time needs r_t > EPS.
    """
    r0 = sc.r0
    rt = sc.r_t(t)
    if not (rt > EPS).all():
        t_bad = np.asarray(t)[~(rt > EPS)].ravel()[0]
        raise ValueError(f"r_t = {sc.r_t(t_bad)} too small at t = {t_bad}: Kraus pair undefined")
    st2 = np.sin(t) ** 2
    ct2 = np.cos(t) ** 2
    # plus = rt + st2 - r0*ct2 and minus = rt - st2 + r0*ct2, and 1 - rt,
    # written without the subtractions that cancel near t = k*pi/2.
    plus = st2 + st2 * (1 + r0**2 * ct2) / (rt + r0 * ct2)
    minus = ct2 * (st2 + r0**2) / (rt + st2) + r0 * ct2
    one_minus_rt = ct2 * (1 - r0**2) / (1 + rt)
    norm = 1.0 / np.sqrt(2 * rt * (1 + r0))
    # The off-diagonal Bloch phase of the reduced state is pi/2 while
    # sin(t)cos(t) >= 0 and 3*pi/2 otherwise; the imaginary entries carry
    # that branch sign, without which reconstruction fails for cos(t) < 0.
    i_br = np.where(np.sin(t) * np.cos(t) >= 0, 1j, -1j)
    m0 = qubit_matrix(
        -norm * _sqrt_clamped((1 + r0) * plus),
        norm * i_br * _sqrt_clamped(one_minus_rt * minus),
        -norm * i_br * _sqrt_clamped((1 + r0) * minus),
        norm * _sqrt_clamped(one_minus_rt * plus),
    )
    q = norm * _sqrt_clamped(rt + r0)
    m1 = qubit_matrix(0, q * _sqrt_clamped(plus), 0, q * i_br * _sqrt_clamped(minus))
    return kraus_set([m0, m1])


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

    One eigendecomposition of ``h`` gives U(t) on the whole grid, and every
    column is computed on the stack of times at once.  With a CNOT scenario
    ``sc`` the Bloch angles, r_t and Kraus pair are its closed forms, checked
    against the numeric state; otherwise they come from the numeric state and
    general_qubit_kraus.  A quantity that does not exist is NaN: the Bloch and
    Kraus columns unless d_i = 2, the Kraus residuals where r_t <= EPS, and
    the trace distance without a closed form.
    """
    ts = np.asarray(ts, dtype=float)
    cols = {name: np.full(ts.shape, np.nan) for name in SWEEP_COLUMNS}
    cols["t"] = ts
    u = _propagator(h, joint, ts)
    numeric = _evolve(u, joint).reduced_system()
    rho0 = joint.reduced_system()
    cols["delta_rho_maxnorm"] = norm_max(_inhomogeneous(u, joint, correlation_operator(joint, rho_i=rho0)))
    if joint.d_i != 2:
        return cols
    if sc is not None:
        analytic = cnot_analytic_rho(sc, ts)
        cols["trace_distance_analytic_vs_numeric"] = trace_distance(analytic, numeric)
        cols["r_t"] = sc.r_t(ts)
        rows = cols["r_t"] > EPS  # where the closed-form pair is defined
        k = cnot_analytic_kraus(sc, ts[rows])
    else:
        analytic = numeric
        rows = np.ones(ts.shape, dtype=bool)
        k = general_qubit_kraus(rho0, numeric)
    cols["r(t)"], cols["theta(t)"], cols["phi(t)"] = bloch_angles(analytic.mat)
    if sc is None:
        cols["r_t"] = cols["r(t)"].copy()
    cols["completeness_residual"][rows] = k.completeness_residual()
    cols["reconstruction_residual"][rows] = norm_max(apply_kraus_raw(k, rho0.mat) - numeric.mat[rows])
    return cols


def factor_local_unitary(
    u: np.ndarray, dims: tuple[int, int], tol: float = EPS
) -> tuple[np.ndarray, np.ndarray] | None:
    """Factor a joint unitary as U_i (x) U_e if possible, else None.

    Uses the nearest-Kronecker-product rearrangement: the reshuffled matrix
    is rank one exactly when the unitary is a tensor product.  The second
    singular value is tested against a fixed 1e-8 gap threshold, then the
    reassembled product is checked against ``tol``.
    """
    d_i, d_e = dims
    u = np.asarray(u, dtype=complex)
    if u.shape != (d_i * d_e, d_i * d_e):
        raise ValueError(f"unitary shape {u.shape} does not match dims {dims}")
    require(unitarity_residual(u), 10 * max(tol, EPS), "input is not unitary")
    # Van Loan rearrangement: row block index pairs with column block index.
    r = u.reshape(d_i, d_e, d_i, d_e).transpose(0, 2, 1, 3).reshape(d_i * d_i, d_e * d_e)
    left, sing, right = np.linalg.svd(r)
    if len(sing) > 1 and sing[1] > 1e-8:
        return None
    # The rank-one factors are the unitaries up to scale; take polar parts.
    u_i = _polar_unitary(left[:, 0].reshape(d_i, d_i))
    u_e = _polar_unitary(right[0, :].reshape(d_e, d_e))
    # Absorb the remaining global phase into the system factor.
    phase = np.trace(dag(kron(u_i, u_e)) @ u) / (d_i * d_e)
    if abs(phase) < 0.5:
        return None
    u_i = u_i * (phase / abs(phase))
    if norm_max(kron(u_i, u_e) - u) > max(tol, 1e-9):
        return None
    return u_i, u_e


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(m)
    return w @ vh
