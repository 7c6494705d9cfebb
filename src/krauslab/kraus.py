"""Kraus-set constructions, channel application, and channel verification.

A channel acts as rho -> sum_mu M_mu rho M_mu^dagger with the completeness
constraint sum_mu M_mu^dagger M_mu = I.  Kraus sets for a given state pair
are highly nonunique; only the channel action is canonical, so tests should
compare actions unless a specific entrywise convention is being pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EPS, dag, eigh, identity, norm_max, require, unitarity_residual
from .states import BlochVector, DensityMatrix, Ordering, diagonalize_state


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, non-empty set of same-shaped Kraus operators.

    ``ops`` is one complex array with the operator axis first, shape (n, ...,
    d_out, d_in), given as such or as a sequence of operators.  Axes after the
    operator axis make a stack of sets: every operation gives one result per set.
    """

    ops: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = self.ops
        if not isinstance(ops, np.ndarray):  # a named error, not numpy's for ragged input
            for op in ops:
                if np.shape(op) != np.shape(ops[0]):
                    raise ValueError(f"operator shape {np.shape(op)} does not match {np.shape(ops[0])}")
        ops = np.asarray(ops, dtype=complex)
        if not len(ops):
            raise ValueError("a Kraus set must contain at least one operator")
        if ops.ndim < 3 or ops.shape[-2:] != (self.d_out, self.d_in):
            raise ValueError(f"operator shape {ops.shape[1:]} does not match ({self.d_out}, {self.d_in})")
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    def completeness_residual(self) -> float | np.ndarray:
        return norm_max((dag(self.ops) @ self.ops).sum(0) - identity(self.d_in))

    def choi_matrix(self) -> np.ndarray:
        """sum_mu vec(M_mu) vec(M_mu)^dagger with column-stacking vec."""
        vecs = self.ops.swapaxes(-1, -2).reshape(self.ops.shape[:-2] + (-1,))
        return (vecs[..., :, None] @ vecs[..., None, :].conj()).sum(0)


def kraus_set(ops, d_in: int | None = None, d_out: int | None = None) -> KrausSet:
    if d_out is None or d_in is None:
        d_out, d_in = np.shape(ops[0])[-2:]
    return KrausSet(ops=ops, d_in=d_in, d_out=d_out)


@dataclass(frozen=True)
class ChannelReport:
    """Residuals from checking a Kraus set against a state pair; one value per set of a stack."""

    completeness_residual: float | np.ndarray
    reconstruction_residual: float | np.ndarray
    choi_min_eigenvalue: float | np.ndarray
    output_trace_residual: float | np.ndarray
    output_min_eigenvalue: float | np.ndarray

    def passes(self, tol: float) -> bool:
        """True when every set passes every check; a NaN fails."""
        residuals_ok = (self.completeness_residual <= tol) & (self.reconstruction_residual <= tol)
        positive = (self.choi_min_eigenvalue >= -tol) & (self.output_min_eigenvalue >= -tol)
        return bool(np.all(residuals_ok & (self.output_trace_residual <= tol) & positive))


def _per_op(ops: np.ndarray, *mats: np.ndarray) -> np.ndarray:
    """``ops`` with unit axes after the operator axis, so that it broadcasts
    against matrix stacks with more stack axes than the set has."""
    return ops.reshape(ops.shape[:1] + (1,) * (max(map(np.ndim, mats)) + 1 - ops.ndim) + ops.shape[1:])


def apply_channel(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """sum_mu M_mu rho M_mu^dagger, validated as a density matrix; stack-aware."""
    if rho.dim != k.d_in:
        raise ValueError(f"state dim {rho.dim} does not match channel d_in {k.d_in}")
    require(k.completeness_residual(), 10 * EPS, "Kraus set violates completeness")
    return DensityMatrix(apply_kraus_raw(k, rho.mat), tol=100 * EPS)


def apply_kraus_raw(k: KrausSet, mat: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix, no validation of either side."""
    ops = _per_op(k.ops, mat)
    return (ops @ mat @ dag(ops)).sum(0)


def _sqrt_clamped(x):
    """Square root with rounding-noise clamping, elementwise.

    Radicands here are analytically nonnegative; anything in [-EPS, 0) is
    rounding and clamps to zero, anything below -EPS (or NaN) is a caller error.
    """
    x = np.asarray(x, dtype=float)
    require(-x, EPS, "negative radicand")
    return np.sqrt(np.maximum(x, 0.0))


def diagonal_pair_kraus(r0: float, r: float) -> KrausSet:
    """Rank-2 Kraus pair connecting the two diagonalized qubit states.

    Maps diag((1-r0)/2, (1+r0)/2) to diag((1+r)/2, (1-r)/2); completeness
    holds analytically for any r0, r in [0, 1].  Radii that are arrays give
    a stack of pairs.
    """
    for name, val in (("r0", r0), ("r", r)):
        if not np.asarray((val >= -EPS) & (val <= 1 + EPS)).all():
            raise ValueError(f"{name} = {val} outside [0, 1]")
    r0 = np.minimum(np.maximum(r0, 0.0), 1.0)
    r = np.minimum(np.maximum(r, 0.0), 1.0)
    a, q = _sqrt_clamped(np.array([(1 - r) / (1 + r0), (r + r0) / (1 + r0)]))
    ops = np.zeros((2, *a.shape, 2, 2), dtype=complex)
    ops[0, ..., 0, 0] = 1
    ops[0, ..., 1, 1] = a
    ops[1, ..., 0, 1] = q
    return KrausSet(ops, d_in=2, d_out=2)


def conjugate_kraus(k: KrausSet, u_out: np.ndarray, u_in: np.ndarray) -> KrausSet:
    """Replace every operator by u_out . M . u_in^dagger.

    Completeness is preserved for unitary u_out, u_in.  Either may be a
    stack of unitaries, each of which must pass.
    """
    for name, u in (("u_out", u_out), ("u_in", u_in)):
        require(unitarity_residual(np.asarray(u, dtype=complex)), 10 * EPS, f"{name} is not unitary")
    return KrausSet(u_out @ _per_op(k.ops, u_out, u_in) @ dag(u_in), d_in=k.d_in, d_out=k.d_out)


def general_qubit_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Two-operator Kraus set connecting any two qubit states.

    Pipeline: diagonalize both states (initial minus-first, final
    plus-first), build the diagonal-pair operators from the Bloch radii,
    then conjugate back into the original bases.  Total on every valid
    pair, including degenerate and rank-deficient states.  Either state may
    be a stack, giving the stack of pairs.
    """
    d0 = diagonalize_state(rho0, Ordering.MINUS_FIRST)
    dt = diagonalize_state(rhot, Ordering.PLUS_FIRST)
    r0 = d0.eig_plus - d0.eig_minus
    r = dt.eig_plus - dt.eig_minus
    diag_pair = diagonal_pair_kraus(r0, r)
    return conjugate_kraus(diag_pair, u_out=dt.basis, u_in=d0.basis)


def closed_form_qubit_kraus(b0: BlochVector, bt: BlochVector) -> KrausSet:
    """Direct entrywise closed form of the two-operator qubit Kraus set.

    Agrees with general_qubit_kraus entrywise for non-degenerate inputs
    under the same basis-sign convention.
    """
    c0, s0 = np.cos(b0.theta / 2), np.sin(b0.theta / 2)
    c, s = np.cos(bt.theta / 2), np.sin(bt.theta / 2)
    e0 = np.exp(1j * b0.phi)
    e = np.exp(1j * bt.phi)
    a = _sqrt_clamped((1 - bt.r) / (1 + b0.r))
    q = _sqrt_clamped((bt.r + b0.r) / (1 + b0.r))
    m0 = np.array(
        [
            [-c * s0 - a * s * c0 * e0 / e, c * c0 / e0 - a * s * s0 / e],
            [-s * s0 * e + a * c * c0 * e0, s * c0 * e / e0 + a * c * s0],
        ],
        dtype=complex,
    )
    m1 = q * np.array(
        [[c * c0 * e0, c * s0], [s * c0 * e * e0, s * s0 * e]],
        dtype=complex,
    )
    return kraus_set([m0, m1])


def factorable_kraus(u_ie: np.ndarray, rho_e0: DensityMatrix, d_i: int) -> KrausSet:
    """Textbook Kraus operators for a factorable initial joint state.

    M_{mu,nu} = sqrt(p_nu) <mu| U |nu> over the environment indices, with
    (p_nu, |nu>) the eigensystem of the environment state and |mu> the
    computational environment basis.  Matches the partial-trace reduced
    dynamics exactly when the joint state is a product.
    """
    d_e = rho_e0.dim
    u_ie = np.asarray(u_ie, dtype=complex)
    if u_ie.shape != (d_i * d_e, d_i * d_e):
        raise ValueError(f"unitary shape {u_ie.shape} does not match dims ({d_i}, {d_e})")
    require(unitarity_residual(u_ie), 10 * EPS, "joint evolution is not unitary")
    env = eigh(rho_e0.mat, tol=rho_e0.tol)
    # u as [e_out, 1, i_out * i_in, e_in]; one matrix-vector product per (mu, nu) contracts e_in with |nu>
    u_t = u_ie.reshape(d_i, d_e, d_i, d_e).transpose(1, 0, 2, 3).reshape(d_e, 1, d_i * d_i, d_e)
    ops = np.sqrt(np.maximum(env.values, 0.0))[:, None] * (u_t @ env.vectors.T[:, :, None])[..., 0]
    return KrausSet(ops.reshape(d_e * d_e, d_i, d_i), d_in=d_i, d_out=d_i)


def measure_prepare_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Constant (measure-and-prepare) channel mapping every state to rhot.

    d^2 operators sqrt(q_j) |v_j><w_k| with (q_j, v_j) the eigensystem of
    the target and (w_k) any orthonormal basis, here the eigenbasis of
    rho0.  Works in any dimension; not rank-minimal.
    """
    if rho0.dim != rhot.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rhot.dim}")
    target = eigh(rhot.mat, tol=rhot.tol)
    source = eigh(rho0.mat, tol=rho0.tol)
    q = np.sqrt(np.maximum(target.values, 0.0))[:, None, None, None]
    v = target.vectors.T[:, None, :, None]  # column v_j at [j, 0]
    w = dag(source.vectors.T[None, :, :, None])  # row w_k^dagger at [0, k]
    return KrausSet((q * (v @ w)).reshape(-1, rhot.dim, rho0.dim), d_in=rho0.dim, d_out=rhot.dim)


def unitary_remix(k: KrausSet, v: np.ndarray, tol: float = EPS) -> KrausSet:
    """Remix a Kraus set by a unitary: M~_mu = sum_nu M_nu V[mu, nu].

    Leaves the channel action unchanged.  If v is larger than the set,
    the set is padded with zero operators first.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"remix matrix must be square, got {v.shape}")
    require(unitarity_residual(v), 10 * tol, "remix matrix is not unitary")
    n = v.shape[0]
    if n < len(k):
        raise ValueError(f"remix matrix size {n} smaller than set size {len(k)}")
    padded = np.zeros((n, *k.ops.shape[1:]), dtype=complex)
    padded[: len(k)] = k.ops
    v = v.reshape(v.shape + (1,) * (padded.ndim - 1))
    return KrausSet((v * padded).sum(1), d_in=k.d_in, d_out=k.d_out)


def verify_channel(k: KrausSet, rho0: DensityMatrix, rhot: DensityMatrix) -> ChannelReport:
    """Residuals of every channel axiom plus reconstruction of rhot from rho0.

    Stack-aware: for a stack of sets (or of states) every field holds one
    value per set.  Never raises on bad numbers; everything is reported.
    """
    if rho0.dim != k.d_in or rhot.dim != k.d_out:
        raise ValueError(
            f"shape mismatch: states ({rho0.dim}, {rhot.dim}) vs channel ({k.d_in}, {k.d_out})"
        )
    out = apply_kraus_raw(k, rho0.mat)
    choi_eigs = np.linalg.eigvalsh(k.choi_matrix())
    out_eigs = np.linalg.eigvalsh((out + dag(out)) / 2)
    return ChannelReport(
        completeness_residual=k.completeness_residual(),
        reconstruction_residual=norm_max(out - rhot.mat),
        # [()] turns the 0-d array of a single set into a scalar
        choi_min_eigenvalue=choi_eigs[..., 0][()],
        output_trace_residual=abs(out.trace(axis1=-2, axis2=-1) - 1.0),
        output_min_eigenvalue=out_eigs[..., 0][()],
    )
