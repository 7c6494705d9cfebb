"""Kraus-set constructions, channel application, and channel verification.

A channel acts as rho -> sum_mu M_mu rho M_mu^dagger with the completeness
constraint sum_mu M_mu^dagger M_mu = I.  Kraus sets for a given state pair
are highly nonunique; only the channel action is canonical, so tests should
compare actions unless a specific entrywise convention is being pinned down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS, bound, dag, eigh, failures, identity, norm_max, qubit_matrix, require, unitarity_residual
from .states import DensityMatrix, bloch_angles, diagonalize_state, qubit_trace_and_min_eigenvalue


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, non-empty set of same-shaped Kraus operators.

    ``ops`` is one complex array with the operator axis first, shape (n, ...,
    d_out, d_in), given as such or as a sequence of operators; ``d_out`` and
    ``d_in`` are read from it.  Axes after the operator axis make a stack of
    sets: every operation gives one result per set.
    """

    ops: np.ndarray
    d_in: int = field(init=False)
    d_out: int = field(init=False)

    def __post_init__(self):
        ops = self.ops
        if not isinstance(ops, np.ndarray):  # a named error, not numpy's for ragged input
            for op in ops:
                if np.shape(op) != np.shape(ops[0]):
                    raise ValueError(f"operator shape {np.shape(op)} does not match {np.shape(ops[0])}")
        ops = np.asarray(ops, dtype=complex)
        if not len(ops):
            raise ValueError("a Kraus set must contain at least one operator")
        if ops.ndim < 3:
            raise ValueError(f"operator shape {ops.shape[1:]} is not a matrix")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "d_out", ops.shape[-2])
        object.__setattr__(self, "d_in", ops.shape[-1])

    def __len__(self) -> int:
        return len(self.ops)

    def completeness_residual(self) -> float | np.ndarray:
        """|sum_mu M_mu^dagger M_mu - I|_max, one per set; a set whose sum overflows reads inf or NaN, which fail."""
        return norm_max(_gram(self.ops) - identity(self.d_in))


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_mu M_mu^dagger M_mu of each set, with the bits of that set's Gram alone.

    A single set, or a stack of rectangular ones, is one ``np.einsum`` call.  A stack of square sets is
    contracted along the stack: its stack axes are moved last by one ``transpose`` and one contiguous copy,
    and the result is moved back.  A rectangular stack keeps the one call, since in that layout its low bits
    can differ from a set's alone."""
    nd = ops.ndim
    if nd == 3 or ops.shape[-1] != ops.shape[-2]:
        return np.einsum("n...ji,n...jk->...ik", ops.conj(), ops)
    last = ops.transpose(0, nd - 2, nd - 1, *range(1, nd - 2)).copy()
    return np.einsum("nji...,njk...->ik...", last.conj(), last).transpose(*range(2, nd - 1), 0, 1)


@dataclass(frozen=True)
class ChannelReport:
    """Residuals from checking a Kraus set against a state pair; one value per set of a stack."""

    completeness_residual: float | np.ndarray
    reconstruction_residual: float | np.ndarray
    output_trace_residual: float | np.ndarray
    output_min_eigenvalue: float | np.ndarray

    def checks(self) -> dict[str, float | np.ndarray]:
        """The four named residuals for ``linalg.failures``; positivity is the minimum eigenvalue negated."""
        r = self
        return {"completeness_residual": r.completeness_residual, "reconstruction_residual": r.reconstruction_residual,
                "output_trace_residual": r.output_trace_residual, "output_positivity": -r.output_min_eigenvalue}

    def passes(self, tol: float) -> bool:
        """True when every set passes every check at ``tol``; a NaN fails."""
        return not failures(self.checks(), tol)


def apply_kraus_raw(k: KrausSet, mat: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix, no validation of either side; a stack of sets or of matrices broadcasts.

    A stack of square sets gives each set's bits; a stack of rectangular ones matches each set only to rounding,
    as ``np.einsum`` may order its sum differently."""
    return np.einsum("n...ij,...jk,n...lk->...il", k.ops, mat, k.ops.conj())


def _diagonal_pair_ops(r0, r) -> np.ndarray:
    """The (2, ..., 2, 2) operators of the diagonal pair; radii must already lie in [0, 1].

    Two scalar radii make one pair with ``math.sqrt`` and three stores by plain indices; ``math.sqrt`` and
    ``np.sqrt`` both round correctly, so its bits are those of the stack's."""
    if isinstance(r0, float) and isinstance(r, float):
        ops = np.zeros((2, 2, 2), dtype=complex)
        ops[0, 0, 0], ops[0, 1, 1], ops[1, 0, 1] = 1, math.sqrt((1 - r) / (1 + r0)), math.sqrt((r + r0) / (1 + r0))
        return ops
    a, q = np.sqrt(np.array([(1 - r) / (1 + r0), (r + r0) / (1 + r0)]))
    ops = np.zeros((2, *a.shape, 2, 2), dtype=complex)
    ops[0, ..., 0, 0], ops[0, ..., 1, 1], ops[1, ..., 0, 1] = 1, a, q
    return ops


def _require_qubit_pair(name: str, rho0: DensityMatrix, rhot: DensityMatrix) -> None:
    """The input guard of the qubit constructors: two qubit states, or stacks of them, whose shapes broadcast."""
    shape0, shape_t = rho0.mat.shape, rhot.mat.shape
    if rho0.dim != 2 or rhot.dim != 2:
        raise ValueError(f"{name} needs qubit states, got shapes {shape0} and {shape_t}")
    if shape0 != shape_t:  # a single pair pays only this comparison
        try:
            np.broadcast_shapes(shape0, shape_t)
        except ValueError:
            raise ValueError(f"{name}: state shapes {shape0} and {shape_t} do not broadcast") from None


def general_qubit_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Two-operator Kraus set connecting any two qubit states.

    Pipeline: diagonalize both states (initial minus-first, final
    plus-first), build the diagonal-pair operators from the Bloch radii,
    then conjugate back into the original bases.  Total on every valid
    pair, including degenerate and rank-deficient states.  Either state may
    be a stack, giving the stack of pairs.  Only the input is checked: the
    radii built here lie in [0, 1] and the bases are unitary to a few ulps.
    """
    _require_qubit_pair("general_qubit_kraus", rho0, rhot)
    d0 = diagonalize_state(rho0, plus_first=False)
    dt = diagonalize_state(rhot, plus_first=True)
    ops = _diagonal_pair_ops(d0.r, dt.r)
    return KrausSet(dt.basis @ ops @ dag(d0.basis))


def closed_form_qubit_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Direct entrywise closed form of the two-operator qubit Kraus set.

    Written in the Bloch coordinates that ``bloch_angles`` reads off both
    states, so it agrees with general_qubit_kraus entrywise, up to the
    rounding of the radii, on every valid pair.  Those radii lie in [0, 1],
    so both square roots are real.  Either state may be a stack, giving the
    stack of pairs.
    """
    _require_qubit_pair("closed_form_qubit_kraus", rho0, rhot)
    return _closed_form_pair(bloch_angles(rho0.mat), bloch_angles(rhot.mat))


def _closed_form_pair(angles0: tuple, angles_t: tuple) -> KrausSet:
    """``closed_form_qubit_kraus`` on the ``(r, theta, phi)`` that ``bloch_angles`` read off its two states.

    No guard: the caller holds the angles of two qubit states, or of stacks of them whose shapes broadcast."""
    (r0, theta0, phi0), (r, theta, phi) = angles0, angles_t
    c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e0 = np.exp(1j * phi0)
    e = np.exp(1j * phi)
    a = np.sqrt((1 - r) / (1 + r0))
    q = np.sqrt((r + r0) / (1 + r0))
    m0 = qubit_matrix(
        -c * s0 - a * s * c0 * e0 / e, c * c0 / e0 - a * s * s0 / e,
        -s * s0 * e + a * c * c0 * e0, s * c0 * e / e0 + a * c * s0,
    )
    m1 = q[..., None, None] * qubit_matrix(c * c0 * e0, c * s0, s * c0 * e * e0, s * s0 * e)
    return KrausSet([m0, m1])


def factorable_kraus(u_ie: np.ndarray, rho_e0: DensityMatrix, d_i: int) -> KrausSet:
    """Textbook Kraus operators for a factorable initial joint state.

    M_{mu,nu} = sqrt(p_nu) <mu| U |nu> over the environment indices, with
    (p_nu, |nu>) the eigensystem of the environment state and |mu> the
    computational environment basis.  Matches the partial-trace reduced
    dynamics exactly when the joint state is a product.  A stack of
    unitaries, shape (..., d_i * d_e, d_i * d_e), gives a stack of sets.
    """
    d_e = rho_e0.dim
    u_ie = np.asarray(u_ie, dtype=complex)
    stack = u_ie.shape[:-2]
    if u_ie.shape[-2:] != (d_i * d_e, d_i * d_e):
        raise ValueError(f"unitary shape {u_ie.shape} does not match dims ({d_i}, {d_e})")
    require(unitarity_residual(u_ie), bound(EPS, d_i * d_e), "joint evolution is not unitary")
    p, nu = eigh(rho_e0.mat, tol=rho_e0.tol)
    # u as [e_out, ..., 1, i_out * i_in, e_in]; one matrix-vector product per (mu, nu) contracts e_in with |nu>
    u_t = np.moveaxis(u_ie.reshape(stack + (d_i, d_e, d_i, d_e)), -3, 0).reshape((d_e,) + stack + (1, d_i * d_i, d_e))
    ops = np.sqrt(np.maximum(p, 0.0))[:, None] * (u_t @ nu.T[:, :, None])[..., 0]
    return KrausSet(np.moveaxis(ops, -2, 1).reshape((d_e * d_e,) + stack + (d_i, d_i)))


def measure_prepare_kraus(rho0: DensityMatrix, rhot: DensityMatrix) -> KrausSet:
    """Constant (measure-and-prepare) channel mapping every state to rhot.

    d^2 operators sqrt(q_j) |v_j><w_k| with (q_j, v_j) the eigensystem of
    the target and (w_k) any orthonormal basis, here the eigenbasis of
    rho0.  Works in any dimension; not rank-minimal.
    """
    if rho0.dim != rhot.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rhot.dim}")
    q, v = eigh(rhot.mat, tol=rhot.tol)
    _, w = eigh(rho0.mat, tol=rho0.tol)
    q = np.sqrt(np.maximum(q, 0.0))[:, None, None, None]
    v = v.T[:, None, :, None]  # column v_j at [j, 0]
    w = dag(w.T[None, :, :, None])  # row w_k^dagger at [0, k]
    return KrausSet((q * (v @ w)).reshape(-1, rhot.dim, rho0.dim))


def unitary_remix(k: KrausSet, v: np.ndarray, tol: float = EPS) -> KrausSet:
    """Remix a Kraus set by a unitary: M~_mu = sum_nu M_nu V[mu, nu].

    Leaves the channel action unchanged.  If v is larger than the set,
    the set is padded with zero operators first.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"remix matrix must be square, got {v.shape}")
    n = v.shape[0]
    require(unitarity_residual(v), bound(tol, n), "remix matrix is not unitary")
    if n < len(k):
        raise ValueError(f"remix matrix size {n} smaller than set size {len(k)}")
    padded = np.zeros((n, *k.ops.shape[1:]), dtype=complex)
    padded[: len(k)] = k.ops
    v = v.reshape(v.shape + (1,) * (padded.ndim - 1))
    return KrausSet((v * padded).sum(1))


def verify_channel(k: KrausSet, rho0: DensityMatrix, rhot: DensityMatrix) -> ChannelReport:
    """Residuals of every channel axiom plus reconstruction of rhot from rho0.

    Stack-aware: for a stack of sets (or of states) every field holds one
    value per set.  Never raises on bad numbers; everything is reported.
    A qubit output's smallest eigenvalue is the closed form of
    ``qubit_trace_and_min_eigenvalue``, with no LAPACK call.  A larger one
    takes LAPACK's spectrum: when every output is finite, one call takes
    them all; a stack that holds a non-finite output masks it.  Either way a
    set whose output has a Hermitian part that is not finite reads -inf.  A
    finite set whose products overflow reads inf or NaN in each residual they
    overflow, and either fails its check.
    """
    if rho0.dim != k.d_in or rhot.dim != k.d_out:
        raise ValueError(
            f"shape mismatch: states ({rho0.dim}, {rhot.dim}) vs channel ({k.d_in}, {k.d_out})"
        )
    out = apply_kraus_raw(k, rho0.mat)
    if k.d_out == 2:
        trace, min_eig = qubit_trace_and_min_eigenvalue(out)
    else:
        herm = (out + dag(out)) / 2
        trace = out.trace(axis1=-2, axis2=-1)
        # [()] turns the 0-d array of a single set into a scalar
        if np.isfinite(herm).all():
            min_eig = np.linalg.eigvalsh(herm)[..., 0][()]
        else:
            # LAPACK may not converge on a non-finite matrix, so such a set gets no spectrum and reads -inf;
            # the Hermitian part of a finite output can overflow too, so it is the part that is tested
            finite = np.isfinite(herm).all(axis=(-2, -1))
            out_eigs = np.linalg.eigvalsh(np.where(finite[..., None, None], herm, 0))
            min_eig = np.where(finite, out_eigs[..., 0], -np.inf)[()]
    return ChannelReport(
        completeness_residual=k.completeness_residual(),
        reconstruction_residual=norm_max(out - rhot.mat),
        output_trace_residual=abs(trace - 1.0),
        output_min_eigenvalue=min_eig,
    )
