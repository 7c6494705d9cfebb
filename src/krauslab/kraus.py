"""Kraus-set constructions, channel application, and channel verification.

A channel acts as rho -> sum_mu M_mu rho M_mu^dagger with the completeness
constraint sum_mu M_mu^dagger M_mu = I.  Kraus sets for a given state pair
are highly nonunique; only the channel action is canonical, so tests should
compare actions unless a specific entrywise convention is being pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EPS, dag, eigh, identity, norm_max, unitarity_residual
from .states import (
    BlochVector,
    DensityMatrix,
    Ordering,
    diagonalize_state,
)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, non-empty set of same-shaped Kraus operators."""

    ops: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.ops)
        if not ops:
            raise ValueError("a Kraus set must contain at least one operator")
        for op in ops:
            if op.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"operator shape {op.shape} does not match ({self.d_out}, {self.d_in})"
                )
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    def completeness_residual(self) -> float:
        acc = sum(dag(op) @ op for op in self.ops)
        return norm_max(acc - identity(self.d_in))

    def choi_matrix(self) -> np.ndarray:
        """sum_mu vec(M_mu) vec(M_mu)^dagger with column-stacking vec."""
        vecs = [op.reshape(-1, 1, order="F") for op in self.ops]
        return sum(v @ dag(v) for v in vecs)


def kraus_set(ops, d_in: int | None = None, d_out: int | None = None) -> KrausSet:
    ops = [np.asarray(op, dtype=complex) for op in ops]
    if d_out is None or d_in is None:
        d_out, d_in = ops[0].shape
    return KrausSet(ops=tuple(ops), d_in=d_in, d_out=d_out)


@dataclass(frozen=True)
class ChannelReport:
    """Residuals from checking a Kraus set against a state pair."""

    completeness_residual: float
    reconstruction_residual: float
    choi_min_eigenvalue: float
    output_trace_residual: float
    output_min_eigenvalue: float

    def passes(self, tol: float) -> bool:
        return (
            self.completeness_residual <= tol
            and self.reconstruction_residual <= tol
            and self.choi_min_eigenvalue >= -tol
            and self.output_trace_residual <= tol
            and self.output_min_eigenvalue >= -tol
        )


def apply_channel(k: KrausSet, rho: DensityMatrix, tol: float = EPS) -> DensityMatrix:
    """sum_mu M_mu rho M_mu^dagger, validated as a density matrix."""
    if rho.dim != k.d_in:
        raise ValueError(f"state dim {rho.dim} does not match channel d_in {k.d_in}")
    res = k.completeness_residual()
    if res > 10 * tol:
        raise ValueError(f"Kraus set violates completeness: residual {res:.3e}")
    out = sum(op @ rho.mat @ dag(op) for op in k.ops)
    return DensityMatrix(out, tol=100 * tol)


def apply_kraus_raw(k: KrausSet, mat: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix, no validation of either side."""
    return sum(op @ mat @ dag(op) for op in k.ops)


def _sqrt_clamped(x: float, tol: float = EPS) -> float:
    """Square root with rounding-noise clamping.

    Radicands here are analytically nonnegative; anything in [-tol, 0) is
    rounding and clamps to zero, anything below -tol is a caller error.
    """
    if x < -tol:
        raise ValueError(f"negative radicand {x:.3e}")
    return float(np.sqrt(max(x, 0.0)))


def diagonal_pair_kraus(r0: float, r: float) -> KrausSet:
    """Rank-2 Kraus pair connecting the two diagonalized qubit states.

    Maps diag((1-r0)/2, (1+r0)/2) to diag((1+r)/2, (1-r)/2); completeness
    holds analytically for any r0, r in [0, 1].
    """
    for name, val in (("r0", r0), ("r", r)):
        if val < -EPS or val > 1 + EPS:
            raise ValueError(f"{name} = {val} outside [0, 1]")
    r0 = float(np.clip(r0, 0.0, 1.0))
    r = float(np.clip(r, 0.0, 1.0))
    m0 = np.array([[1, 0], [0, _sqrt_clamped((1 - r) / (1 + r0))]], dtype=complex)
    m1 = np.array([[0, _sqrt_clamped((r + r0) / (1 + r0))], [0, 0]], dtype=complex)
    return kraus_set([m0, m1])


def conjugate_kraus(k: KrausSet, u_out: np.ndarray, u_in: np.ndarray, tol: float = EPS) -> KrausSet:
    """Replace every operator by u_out . M . u_in^dagger.

    Completeness is preserved for unitary u_out, u_in.
    """
    for name, u in (("u_out", u_out), ("u_in", u_in)):
        res = unitarity_residual(np.asarray(u, dtype=complex))
        if res > 10 * tol:
            raise ValueError(f"{name} is not unitary: residual {res:.3e}")
    return kraus_set([u_out @ op @ dag(u_in) for op in k.ops])


def general_qubit_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Two-operator Kraus set connecting any two qubit states.

    Pipeline: diagonalize both states (initial minus-first, final
    plus-first), build the diagonal-pair operators from the Bloch radii,
    then conjugate back into the original bases.  Total on every valid
    pair, including degenerate and rank-deficient states.
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


def factorable_kraus(u_ie: np.ndarray, rho_e0: DensityMatrix, d_i: int, tol: float = EPS) -> KrausSet:
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
    res = unitarity_residual(u_ie)
    if res > 10 * tol:
        raise ValueError(f"joint evolution is not unitary: residual {res:.3e}")
    env = eigh(rho_e0.mat, tol=rho_e0.tol)
    # u as tensor [i_out, e_out, i_in, e_in]
    u_t = u_ie.reshape(d_i, d_e, d_i, d_e)
    ops = []
    for mu in range(d_e):
        for nu in range(d_e):
            p = max(float(env.values[nu]), 0.0)
            ket = env.vectors[:, nu]
            # contract the input environment leg with |nu>, read out env row mu
            ops.append(np.sqrt(p) * np.tensordot(u_t[:, mu, :, :], ket, axes=([2], [0])))
    return kraus_set(ops, d_in=d_i, d_out=d_i)


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
    ops = []
    for j in range(rhot.dim):
        q = max(float(target.values[j]), 0.0)
        v = target.vectors[:, j].reshape(-1, 1)
        for k in range(rho0.dim):
            w = source.vectors[:, k].reshape(-1, 1)
            ops.append(np.sqrt(q) * (v @ dag(w)))
    return kraus_set(ops, d_in=rho0.dim, d_out=rhot.dim)


def unitary_remix(k: KrausSet, v: np.ndarray, tol: float = EPS) -> KrausSet:
    """Remix a Kraus set by a unitary: M~_mu = sum_nu M_nu V[mu, nu].

    Leaves the channel action unchanged.  If v is larger than the set,
    the set is padded with zero operators first.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"remix matrix must be square, got {v.shape}")
    res = unitarity_residual(v)
    if res > 10 * tol:
        raise ValueError(f"remix matrix is not unitary: residual {res:.3e}")
    n = v.shape[0]
    if n < len(k.ops):
        raise ValueError(f"remix matrix size {n} smaller than set size {len(k.ops)}")
    zero = np.zeros((k.d_out, k.d_in), dtype=complex)
    padded = list(k.ops) + [zero] * (n - len(k.ops))
    remixed = [sum(v[mu, nu] * padded[nu] for nu in range(n)) for mu in range(n)]
    return kraus_set(remixed, d_in=k.d_in, d_out=k.d_out)


def verify_channel(k: KrausSet, rho0: DensityMatrix, rhot: DensityMatrix) -> ChannelReport:
    """Residuals of every channel axiom plus reconstruction of rhot from rho0.

    Never raises on bad numbers; everything is reported.
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
        choi_min_eigenvalue=float(choi_eigs[0]),
        output_trace_residual=float(abs(np.trace(out) - 1.0)),
        output_min_eigenvalue=float(out_eigs[0]),
    )
