import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krauslab import (
    KrausSet,
    apply_channel,
    bloch_angles,
    bloch_matrix,
    closed_form_qubit_kraus,
    conjugate_kraus,
    diagonalize_state,
    factorable_kraus,
    general_qubit_kraus,
    measure_prepare_kraus,
    unitary_remix,
    validate_density,
    verify_channel,
)
from krauslab.kraus import ChannelReport, _diagonal_pair_ops, _gram, apply_kraus_raw
from krauslab.linalg import (
    EPS,
    bound,
    dag,
    eigh,
    failures,
    identity,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_y,
    pauli_z,
    unitarity_residual,
)
from krauslab.serialize import dumps, matrix_to_json, state_from_json
from krauslab.states import DensityMatrix, density_violations

from conftest import bloch_state, choi_spectrum, edge_matrix, edge_tols, random_density, random_unitary
from test_serialize import reports

#: Bloch radii at and near the branch points: the centre, pure states and
#: states with 1 - r down to 1e-12.
radii = st.one_of(
    st.just(0.0), st.floats(0, 1e-9), st.floats(-12, 0).map(lambda e: 1 - 10**e), st.just(1.0), st.floats(0, 1)
)
#: Polar angles at and near the poles, where phi is a convention, and anywhere.
thetas = st.one_of(st.floats(0, 1e-12), st.floats(0, 1e-12).map(lambda d: np.pi - d), st.floats(0, np.pi))
bloch_states = st.builds(lambda r, theta, phi: bloch_state(r, theta, phi).mat, radii, thetas, st.floats(0, 2 * np.pi))
#: Random full-rank and pure states.
ginibre_states = st.builds(
    lambda seed, rank: random_density(np.random.default_rng(seed), rank=rank).mat,
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
)
#: Qubit state matrices of every kind: full, pure, near pure, polar and maximally mixed.
qubit_states = st.one_of(ginibre_states, bloch_states)
signed_zeros = st.sampled_from([0.0, -0.0])
#: States on the z axis exactly, off-diagonal zeros of either sign: the poles and the centre (z = 0).
axis_states = st.builds(
    lambda z, a, b, c, d: np.array([[(1 + z) / 2, complex(a, b)], [complex(c, d), (1 - z) / 2]]),
    st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1, 1)),
    signed_zeros, signed_zeros, signed_zeros, signed_zeros,
)
tiny = st.floats(-300, -9).map(lambda e: 10.0**e)
#: States whose radius, or whose distance from the z axis, is log-uniform in [1e-300, 1e-9].
near_axis_states = st.one_of(
    st.builds(bloch_matrix, tiny, st.floats(0, np.pi), st.floats(0, 2 * np.pi)),
    st.builds(
        lambda rho, phi, z: 0.5 * (identity(2) + rho * (np.cos(phi) * pauli_x + np.sin(phi) * pauli_y) + z * pauli_z),
        tiny, st.floats(0, 2 * np.pi), st.floats(-1, 1),
    ),
)


def ginibre_stack(rng, n):
    """n random full-rank qubit state matrices."""
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    m = g @ dag(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


@st.composite
def state_pairs(draw):
    """(rho0, rhot) matrices: one pair, two stacks of pairs, or one rho0 against
    a stack.  A stack holds up to 4 drawn states and 128 random full-rank ones:
    an ulp of difference in a radius reaches the operators' bits only rarely."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))

    def stack():
        return np.concatenate([[draw(qubit_states) for _ in range(n)], ginibre_stack(rng, 128)])

    layout = draw(st.sampled_from(["single", "stacks", "broadcast"]))
    if layout == "single":
        return draw(qubit_states), draw(qubit_states)
    return (stack() if layout == "stacks" else draw(qubit_states)), stack()


class TestKrausSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausSet([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="not a matrix"):
            KrausSet(identity(2))  # two vectors, not operators

    def test_mismatched_operators_get_the_named_error(self):
        with pytest.raises(ValueError, match="does not match"):
            KrausSet([identity(2), identity(3)])

    def test_ops_is_one_array_with_the_operator_axis_first(self):
        k = KrausSet([identity(2), 2 * identity(2), 3 * identity(2)])
        assert isinstance(k.ops, np.ndarray) and k.ops.shape == (3, 2, 2)
        assert len(k) == 3 and np.array_equal(k.ops[2], 3 * identity(2))

    def test_dims_are_read_from_the_operators(self):
        k = KrausSet(np.zeros((2, 5, 3, 4)))  # a stack of 5 sets of two 3x4 operators
        assert (k.d_out, k.d_in) == (3, 4)
        with pytest.raises(TypeError):
            KrausSet([identity(2)], d_in=2, d_out=2)

    def test_completeness_residual_of_dropped_operator(self):
        k = KrausSet(_diagonal_pair_ops(0.5, 0.3))
        partial = KrausSet([k.ops[0]])
        m1 = k.ops[1]
        assert partial.completeness_residual() == pytest.approx(norm_max(dag(m1) @ m1))


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(rng)
        out = apply_channel(KrausSet([identity(2)]), rho)
        assert norm_max(out.mat - rho.mat) == 0

    def test_diagonal_pair_on_diagonal_state(self):
        # the spec pair maps diag((1-r0)/2, (1+r0)/2) to diag((1+r)/2, (1-r)/2)
        k = KrausSet(_diagonal_pair_ops(0.7, 0.2))
        rho0 = validate_density(np.diag([0.15, 0.85]))
        out = apply_channel(k, rho0)
        assert norm_max(out.mat - np.diag([0.6, 0.4])) <= 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="dim"):
            apply_channel(KrausSet([identity(2)]), random_density(rng, d=3))

    def test_rejects_incomplete_set(self, rng):
        bad = KrausSet([identity(2) * 0.5])
        with pytest.raises(ValueError, match="completeness"):
            apply_channel(bad, random_density(rng))

    def test_output_is_valid_state(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            k = general_qubit_kraus(random_density(rng), random_density(rng))
            out = apply_channel(k, rho)  # DensityMatrix validation inside
            assert abs(np.trace(out.mat) - 1) <= 1e-12

    @given(
        tol=edge_tols,
        sign=st.sampled_from([-1, 1]),
        rank=st.integers(1, 2),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_state_at_the_edge_of_tol_survives(self, tol, sign, rank, n, seed):
        """A qubit state that passes at tol, by as little as rounding allows, maps
        under a complete set to a state within the bound of linalg.bound."""
        rng = np.random.default_rng(seed)
        m = edge_matrix(rng, 2, tol, sign, rank)
        assume(not density_violations(m, tol))
        isometry = random_unitary(rng, 2 * n)[:, :2]  # the stacked operators of a complete set
        apply_channel(KrausSet(isometry.reshape(n, 2, 2)), DensityMatrix(m, tol=tol))

    def test_output_bound_covers_the_sets_completeness_residual(self):
        """A set just inside its completeness bound and a state at the edge of its
        tol: the output's trace is off by the state's error plus d_in times the set's."""
        k = KrausSet([np.sqrt(1 + 3.9e-10) * identity(2)])
        assert k.completeness_residual() <= bound(EPS, 2)
        rho = DensityMatrix(np.diag([0.5 + 0.45e-10, 0.5 + 0.45e-10]), tol=1e-10)
        out = apply_channel(k, rho)
        assert abs(np.trace(out.mat) - 1) == pytest.approx(4.8e-10, rel=1e-3)


class TestDiagonalPair:
    @given(r=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_family(self, r):
        # with r0 = r the pair swaps the diagonal entries
        k = KrausSet(_diagonal_pair_ops(r, r))
        rho = np.diag([(1 - r) / 2, (1 + r) / 2]).astype(complex)
        out = apply_kraus_raw(k, rho)
        assert norm_max(out - np.diag([(1 + r) / 2, (1 - r) / 2])) <= 1e-12
        assert k.completeness_residual() <= 1e-15

    def test_both_zero_is_identity_channel(self):
        k = KrausSet(_diagonal_pair_ops(0.0, 0.0))
        assert np.allclose(k.ops[0], identity(2))
        assert np.allclose(k.ops[1], np.zeros((2, 2)))
        out = apply_kraus_raw(k, identity(2) / 2)
        assert norm_max(out - identity(2) / 2) == 0

    def test_pure_to_mixed(self):
        k = KrausSet(_diagonal_pair_ops(1.0, 0.0))
        assert np.allclose(k.ops[0], np.diag([1, np.sqrt(0.5)]))
        assert k.ops[1][0, 1] == pytest.approx(np.sqrt(0.5))
        out = apply_kraus_raw(k, np.diag([0.0, 1.0]).astype(complex))
        assert norm_max(out - identity(2) / 2) <= 1e-12


class TestConjugateKraus:
    def test_identity_conjugation(self):
        k = KrausSet(_diagonal_pair_ops(0.4, 0.6))
        out = conjugate_kraus(k, identity(2), identity(2))
        for a, b in zip(out.ops, k.ops):
            assert norm_max(a - b) == 0

    def test_preserves_completeness(self, rng):
        k = KrausSet(_diagonal_pair_ops(0.4, 0.6))
        for _ in range(20):
            out = conjugate_kraus(k, random_unitary(rng, 2), random_unitary(rng, 2))
            assert out.completeness_residual() <= 1e-12

    def test_rejects_non_unitary(self):
        k = KrausSet(_diagonal_pair_ops(0.4, 0.6))
        with pytest.raises(ValueError, match="unitary"):
            conjugate_kraus(k, 2 * identity(2), identity(2))


class TestGeneralQubitKraus:
    def test_reconstructs_random_pairs(self, rng):
        for _ in range(100):
            rho0 = random_density(rng, rank=int(rng.integers(1, 3)))
            rhot = random_density(rng, rank=int(rng.integers(1, 3)))
            k = general_qubit_kraus(rho0, rhot)
            rep = verify_channel(k, rho0, rhot)
            assert rep.completeness_residual <= 1e-9
            assert rep.reconstruction_residual <= 1e-9
            assert choi_spectrum(k.ops)[0] >= -1e-9

    def test_pure_fixed_point(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        rep = verify_channel(general_qubit_kraus(rho, rho), rho, rho)
        assert rep.reconstruction_residual <= 1e-10

    def test_maximally_mixed_input(self, rng):
        mixed = validate_density(identity(2) / 2)
        rhot = random_density(rng)
        rep = verify_channel(general_qubit_kraus(mixed, rhot), mixed, rhot)
        assert rep.reconstruction_residual <= 1e-9

    def test_two_operators(self, rng):
        assert len(general_qubit_kraus(random_density(rng), random_density(rng))) == 2

    def test_matches_diagonalization_pipeline(self, rng):
        rho0, rhot = random_density(rng), random_density(rng)
        d0 = diagonalize_state(rho0, plus_first=False)
        dt = diagonalize_state(rhot, plus_first=True)
        pair = KrausSet(_ref_pair_ops(d0.eig_plus - d0.eig_minus, dt.eig_plus - dt.eig_minus))
        expected = conjugate_kraus(pair, dt.basis, d0.basis)
        got = general_qubit_kraus(rho0, rhot)
        for a, b in zip(got.ops, expected.ops):
            assert norm_max(a - b) <= 1e-14

    @pytest.mark.parametrize(
        "shape0, shape_t, message",
        [
            ((3, 3), (3, 3), r"general_qubit_kraus needs qubit states, got shapes \(3, 3\) and \(3, 3\)"),
            ((2, 2), (3, 3), r"general_qubit_kraus needs qubit states, got shapes \(2, 2\) and \(3, 3\)"),
            ((3, 2, 2), (2, 2, 2), r"general_qubit_kraus: state shapes \(3, 2, 2\) and \(2, 2, 2\) do not broadcast"),
        ],
    )
    def test_input_errors_name_the_function(self, shape0, shape_t, message):
        rho0, rhot = (validate_density(np.broadcast_to(identity(s[-1]) / s[-1], s)) for s in (shape0, shape_t))
        with pytest.raises(ValueError, match=message):
            general_qubit_kraus(rho0, rhot)


class TestUncheckedQubitPair:
    """general_qubit_kraus builds its radii and bases itself and skips the
    guards of the public steps; these tests show those guards cannot fail there."""

    @pytest.mark.parametrize("plus_first", [False, True], ids=["minus-first", "plus-first"])
    @given(mats=st.lists(qubit_states, min_size=1, max_size=4), stacked=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_basis_unitarity_residual_is_a_few_ulps(self, plus_first, mats, stacked):
        states = [validate_density(np.stack(mats))] if stacked else [validate_density(m) for m in mats]
        for rho in states:
            assert np.max(unitarity_residual(diagonalize_state(rho, plus_first).basis)) <= 4 * np.finfo(float).eps

    @given(pair=state_pairs())
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_the_guarded_steps(self, pair):
        rho0, rhot = map(validate_density, pair)
        d0 = diagonalize_state(rho0, plus_first=False)
        dt = diagonalize_state(rhot, plus_first=True)
        for r in (d0.r, dt.r):  # the radii need no clamp to [0, 1]
            assert np.all((0 <= r) & (r <= 1))
        expected = conjugate_kraus(KrausSet(_ref_pair_ops(d0.r, dt.r)), dt.basis, d0.basis)
        assert np.array_equal(general_qubit_kraus(rho0, rhot).ops, expected.ops)

    @given(radius_pairs=st.lists(st.tuples(radii, radii), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_diagonal_pair_ops_on_unit_radii(self, radius_pairs):
        r0, r = np.array(radius_pairs).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ops in (_diagonal_pair_ops(r0, r), _diagonal_pair_ops(r0[0], r[0])):
                a, q = ops[0, ..., 1, 1], ops[1, ..., 0, 1]
                assert np.isfinite(ops).all()
                assert (a.imag == 0).all() and (a.real >= 0).all()
                assert (q.imag == 0).all() and (q.real >= 0).all()


#: Entries below the smallest normal float, subnormals and zeros of either sign included.
subnormals = st.floats(-(2.0**-1022), 2.0**-1022)
#: Valid states with subnormal entries: off the diagonal, on it next to 1, or both.
subnormal_states = st.builds(
    lambda p, a, b: np.array([[p, complex(a, b)], [complex(a, -b), 1 - p]]),
    st.one_of(subnormals.map(abs), st.sampled_from([0.0, 0.5, 1.0])), subnormals, subnormals,
)
#: Single states of every kind the scalar read must match the array formula on.
single_states = st.one_of(qubit_states, axis_states, near_axis_states, subnormal_states)


def _bits(*values):
    """The type and every bit of each value: repr of a Python float or complex is exact, signed zeros included."""
    return repr([(type(v).__name__, np.asarray(v).tolist()) for v in values])


def _ref_bloch_angles(m):
    """bloch_angles as the array formula on the 0-d entries m[..., i, j] of one matrix."""
    x = (m[..., 0, 1] + m[..., 1, 0]).real
    y = m[..., 1, 0].imag - m[..., 0, 1].imag
    z = (m[..., 0, 0] - m[..., 1, 1]).real
    r = np.minimum(np.sqrt(x * x + y * y + z * z), 1.0)
    theta = np.arctan2(np.sqrt(x * x + y * y), z)
    phi = np.arctan2(y, x) % (2 * np.pi)
    return r, theta, phi % (2 * np.pi)


def _ref_qubit_matrix(a, b, c, d):
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _ref_diagonalize(m, plus_first):
    r, theta, phi = _ref_bloch_angles(m)
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    if plus_first:
        return r, _ref_qubit_matrix(c, -s * e.conjugate(), s * e, c)
    return r, _ref_qubit_matrix(-s, c * e.conjugate(), c * e, s)


def _ref_pair_ops(r0, r):
    a, q = np.sqrt(np.array([(1 - r) / (1 + r0), (r + r0) / (1 + r0)]))
    ops = np.zeros((2, *a.shape, 2, 2), dtype=complex)
    ops[0, ..., 0, 0], ops[0, ..., 1, 1], ops[1, ..., 0, 1] = 1, a, q
    return ops


def _ref_general(m0, mt):
    (r0, basis0), (r, basis) = _ref_diagonalize(m0, False), _ref_diagonalize(mt, True)
    return basis @ _ref_pair_ops(r0, r) @ dag(basis0)


def _ref_closed_form(m0, mt):
    (r0, theta0, phi0), (r, theta, phi) = _ref_bloch_angles(m0), _ref_bloch_angles(mt)
    c0, s0, c, s = np.cos(theta0 / 2), np.sin(theta0 / 2), np.cos(theta / 2), np.sin(theta / 2)
    e0, e = np.exp(1j * phi0), np.exp(1j * phi)
    a, q = np.sqrt((1 - r) / (1 + r0)), np.sqrt((r + r0) / (1 + r0))
    m0 = _ref_qubit_matrix(
        -c * s0 - a * s * c0 * e0 / e, c * c0 / e0 - a * s * s0 / e,
        -s * s0 * e + a * c * c0 * e0, s * c0 * e / e0 + a * c * s0,
    )
    m1 = q[..., None, None] * _ref_qubit_matrix(c * c0 * e0, c * s0, s * c0 * e * e0, s * s0 * e)
    return np.array([m0, m1])


class TestScalarRead:
    """A single state is read once as Python scalars through the Kraus pair.  Every result has the type and the
    bits of the array formula on the 0-d entries of the matrix, which the references above keep.  A stack is not
    the reference: numpy's trigonometry on an array may round differently from its trigonometry on a scalar."""

    @given(m=single_states, plus_first=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_bloch_angles_and_diagonalize_state(self, m, plus_first):
        assert _bits(*bloch_angles(m)) == _bits(*_ref_bloch_angles(m))
        d = diagonalize_state(validate_density(m), plus_first)
        assert _bits(d.r, d.basis) == _bits(*_ref_diagonalize(m, plus_first))

    @given(r0=radii, r=radii)
    @settings(max_examples=200, deadline=None)
    def test_diagonal_pair_ops(self, r0, r):
        for pair in ((r0, r), (np.float64(r0), np.float64(r))):
            assert _bits(_diagonal_pair_ops(*pair)) == _bits(_ref_pair_ops(*pair))

    @given(m0=single_states, mt=single_states)
    @settings(max_examples=400, deadline=None)
    def test_qubit_constructors(self, m0, mt):
        rho0, rhot = validate_density(m0), validate_density(mt)
        assert _bits(general_qubit_kraus(rho0, rhot).ops) == _bits(_ref_general(m0, mt))
        assert _bits(closed_form_qubit_kraus(rho0, rhot).ops) == _bits(_ref_closed_form(m0, mt))


@given(
    theta=st.floats(1e-12, 1e-6),
    south=st.booleans(),
    r=st.floats(0.05, 1.0),
    phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
    other=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi, exclude_max=True)),
    encoding=st.sampled_from(["bloch", "matrix"]),
    method=st.sampled_from([general_qubit_kraus, closed_form_qubit_kraus]),
    near_first=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_state_near_a_pole_is_reached_at_the_default_tol(theta, south, r, phi, other, encoding, method, near_first):
    """A state within 1e-6 of a Bloch pole, read from either file encoding, is
    connected to any other state by both qubit constructors in either order, and
    its polar angle is read back to rounding: arccos(z / r) lost every digit of it."""
    theta = np.pi - theta if south else theta
    assert bloch_angles(bloch_matrix(r, theta, phi))[1] == pytest.approx(theta, rel=0, abs=1e-15)
    bloch = {"r": r, "theta": theta, "phi": phi}
    obj = {"bloch": bloch} if encoding == "bloch" else {"matrix": matrix_to_json(bloch_matrix(**bloch))}
    near, far = state_from_json(json.loads(dumps(obj)), EPS), bloch_state(*other)
    rho0, rhot = (near, far) if near_first else (far, near)
    assert verify_channel(method(rho0, rhot), rho0, rhot).passes(1e-10)


@given(
    rho0=st.one_of(qubit_states, axis_states, near_axis_states),
    rhot=st.one_of(qubit_states, axis_states, near_axis_states),
)
@settings(max_examples=500, deadline=None)
def test_qubit_constructors_agree_and_pass_at_tol_zero(rho0, rhot):
    """On every valid pair, the benchmark's five state kinds (full, pure, near
    pure, polar, maximally mixed), the exact centre and poles and states 1e-300
    to 1e-9 off them included, the two qubit constructors take one basis
    convention and both pass every check at bound(0, 2), the CLI's --tol 0
    rule: no threshold swaps a state for a neighbour.

    The operators agree entrywise to bound(0, 2): both constructors take the
    radii that bloch_angles reads off the states, so sqrt(1 - r) and
    sqrt(r + r0), which magnify an ulp of 1 - r near a pure state or of r + r0
    near the centre to its square root, see the same radii.  A basis that
    differs moves an entry by O(1)."""
    rho0, rhot = validate_density(rho0), validate_density(rhot)
    general, closed_form = general_qubit_kraus(rho0, rhot), closed_form_qubit_kraus(rho0, rhot)
    assert np.max(norm_max(general.ops - closed_form.ops)) <= bound(0, 2)
    for k in (general, closed_form):
        assert verify_channel(k, rho0, rhot).passes(bound(0, 2))


class TestClosedFormQubitKraus:
    def test_pure_pair_completeness(self):
        rho = bloch_state(1.0, 0.0, 0.0)
        k = closed_form_qubit_kraus(rho, rho)
        assert k.completeness_residual() <= 1e-12

    def test_entrywise_match_with_general(self, rng):
        for _ in range(100):
            rho0, rhot = random_density(rng), random_density(rng)
            (r0, theta0, _), (r, theta, _) = bloch_angles(rho0.mat), bloch_angles(rhot.mat)
            if min(r0, r) < 1e-6 or min(np.sin(theta0), np.sin(theta)) < 1e-6:
                continue
            kc = closed_form_qubit_kraus(rho0, rhot)
            kg = general_qubit_kraus(rho0, rhot)
            for a, b in zip(kc.ops, kg.ops):
                assert norm_max(a - b) <= 1e-8

    def test_identity_inputs_fix_the_state(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            k = closed_form_qubit_kraus(rho, rho)
            out = apply_channel(k, rho)
            assert norm_max(out.mat - rho.mat) <= 1e-10

    def test_channel_action_matches_target(self, rng):
        for _ in range(50):
            rho0, rhot = random_density(rng), random_density(rng)
            k = closed_form_qubit_kraus(rho0, rhot)
            assert norm_max(apply_kraus_raw(k, rho0.mat) - rhot.mat) <= 1e-9

    @given(pair=state_pairs())
    @settings(max_examples=50, deadline=None)
    def test_stack_is_the_per_pair_loop(self, pair):
        """Within a few ulps, not bit for bit: numpy's trigonometry on an array may round
        differently from its trigonometry on a scalar."""
        stacked = closed_form_qubit_kraus(*map(validate_density, pair)).ops
        loop = [
            closed_form_qubit_kraus(validate_density(a), validate_density(b)).ops
            for a, b in zip(*(np.broadcast_to(m, stacked.shape[1:]).reshape(-1, 2, 2) for m in pair))
        ]
        assert stacked.shape == (2, *np.broadcast_shapes(*(np.shape(m) for m in pair)))
        assert np.max(norm_max(stacked - np.stack(loop, 1).reshape(stacked.shape))) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "shape0, shape_t, message",
        [
            ((3, 3), (3, 3), r"closed_form_qubit_kraus needs qubit states, got shapes \(3, 3\) and \(3, 3\)"),
            ((2, 2), (3, 3), r"closed_form_qubit_kraus needs qubit states, got shapes \(2, 2\) and \(3, 3\)"),
            ((3, 2, 2), (2, 2, 2), r"closed_form_qubit_kraus: state shapes \(3, 2, 2\) and \(2, 2, 2\) do not broadcast"),
        ],
    )
    def test_input_errors_name_the_function(self, shape0, shape_t, message):
        """The guard of general_qubit_kraus, shared: qubit states whose shapes broadcast."""
        rho0, rhot = (validate_density(np.broadcast_to(identity(s[-1]) / s[-1], s)) for s in (shape0, shape_t))
        with pytest.raises(ValueError, match=message):
            closed_form_qubit_kraus(rho0, rhot)


class TestFactorableKraus:
    def test_matches_partial_trace_dynamics(self, rng):
        for _ in range(50):
            u = random_unitary(rng, 4)
            rho_i, rho_e = random_density(rng), random_density(rng)
            k = factorable_kraus(u, rho_e, d_i=2)
            out = apply_kraus_raw(k, rho_i.mat)
            ref = partial_trace(u @ kron(rho_i.mat, rho_e.mat) @ dag(u), (2, 2), keep=0)
            assert norm_max(out - ref) <= 1e-9
            assert k.completeness_residual() <= 1e-9

    def test_local_unitary_acts_by_conjugation(self, rng):
        u_i = random_unitary(rng, 2)
        u = kron(u_i, identity(2))
        rho_i, rho_e = random_density(rng), random_density(rng)
        k = factorable_kraus(u, rho_e, d_i=2)
        out = apply_kraus_raw(k, rho_i.mat)
        assert norm_max(out - u_i @ rho_i.mat @ dag(u_i)) <= 1e-12

    def test_pure_environment_rank(self, rng):
        u = random_unitary(rng, 4)
        rho_e = validate_density(np.diag([1.0, 0.0]))
        k = factorable_kraus(u, rho_e, d_i=2)
        # only the operators fed by the occupied environment eigenvector survive
        nonzero = [op for op in k.ops if norm_max(op) > 1e-12]
        assert len(nonzero) <= 2

    def test_operator_count(self, rng):
        k = factorable_kraus(random_unitary(rng, 4), random_density(rng), d_i=2)
        assert len(k) == 4

    @pytest.mark.parametrize("d_i, d_e", [(2, 2), (2, 3), (3, 2)])
    def test_matches_the_per_operator_contraction(self, rng, d_i, d_e):
        u, rho_e = random_unitary(rng, d_i * d_e), random_density(rng, d=d_e)
        env_values, env_vectors = eigh(rho_e.mat)
        u_t = u.reshape(d_i, d_e, d_i, d_e)
        p = [max(float(value), 0.0) for value in env_values]
        expected = [
            np.sqrt(p[nu]) * np.tensordot(u_t[:, mu], env_vectors[:, nu], axes=([2], [0]))
            for mu in range(d_e)
            for nu in range(d_e)
        ]
        assert np.array_equal(factorable_kraus(u, rho_e, d_i=d_i).ops, expected)

    @pytest.mark.parametrize("d_e", [1, 2, 3])
    def test_stack_of_unitaries_is_the_per_unitary_loop(self, rng, d_e):
        """A (3, 2) stack of U gives the sets of a loop over each U, bit for bit, on the axes after the operator axis."""
        us = np.stack([random_unitary(rng, 2 * d_e) for _ in range(6)]).reshape(3, 2, 2 * d_e, 2 * d_e)
        rho_e = random_density(rng, d=d_e)
        stacked = factorable_kraus(us, rho_e, d_i=2).ops
        loop = [[factorable_kraus(u, rho_e, d_i=2).ops for u in row] for row in us]
        assert stacked.shape == (d_e * d_e, 3, 2, 2, 2)
        assert np.array_equal(stacked, np.moveaxis(np.array(loop), 2, 0))


class TestMeasurePrepareKraus:
    def test_constant_channel_qubit(self, rng):
        rho0 = validate_density(identity(2) / 2)
        rhot = validate_density(np.diag([1.0, 0.0]))
        k = measure_prepare_kraus(rho0, rhot)
        assert len(k) == 4
        for _ in range(10):
            sigma = random_density(rng)
            assert norm_max(apply_kraus_raw(k, sigma.mat) - rhot.mat) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_completeness(self, rng, d):
        k = measure_prepare_kraus(random_density(rng, d=d), random_density(rng, d=d))
        assert k.completeness_residual() <= 1e-12

    def test_constant_on_distinct_inputs(self, rng):
        d = 3
        k = measure_prepare_kraus(random_density(rng, d=d), random_density(rng, d=d))
        out1 = apply_kraus_raw(k, random_density(rng, d=d).mat)
        out2 = apply_kraus_raw(k, random_density(rng, d=d).mat)
        assert norm_max(out1 - out2) <= 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            measure_prepare_kraus(random_density(rng, d=2), random_density(rng, d=3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_per_operator_products(self, rng, d):
        rho0, rhot = random_density(rng, d=d), random_density(rng, d=d)
        (target_values, target_vectors), (_, source_vectors) = eigh(rhot.mat), eigh(rho0.mat)
        q = [max(float(value), 0.0) for value in target_values]
        expected = [
            np.sqrt(q[j]) * (target_vectors[:, [j]] @ dag(source_vectors[:, [k]]))
            for j in range(d)
            for k in range(d)
        ]
        assert np.array_equal(measure_prepare_kraus(rho0, rhot).ops, expected)


class TestUnitaryRemix:
    def test_identity_remix(self):
        k = KrausSet(_diagonal_pair_ops(0.3, 0.8))
        out = unitary_remix(k, identity(2))
        for a, b in zip(out.ops, k.ops):
            assert norm_max(a - b) == 0

    def test_permutation_remix(self):
        k = KrausSet(_diagonal_pair_ops(0.3, 0.8))
        out = unitary_remix(k, pauli_x)
        assert norm_max(out.ops[0] - k.ops[1]) == 0
        assert norm_max(out.ops[1] - k.ops[0]) == 0

    def test_action_invariance(self, rng):
        k = KrausSet(_diagonal_pair_ops(0.3, 0.8))
        for _ in range(100):
            v = random_unitary(rng, 2)
            rho = random_density(rng)
            out1 = apply_kraus_raw(k, rho.mat)
            out2 = apply_kraus_raw(unitary_remix(k, v), rho.mat)
            assert norm_max(out1 - out2) <= 1e-9

    def test_padding(self, rng):
        k = KrausSet(_diagonal_pair_ops(0.3, 0.8))
        out = unitary_remix(k, random_unitary(rng, 4))
        assert len(out) == 4
        assert out.completeness_residual() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_matches_the_per_operator_sums(self, rng, n):
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        v = random_unitary(rng, n)
        padded = list(k.ops) + [np.zeros((2, 2), dtype=complex)] * (n - len(k))
        expected = [sum(v[mu, nu] * padded[nu] for nu in range(n)) for mu in range(n)]
        assert np.array_equal(unitary_remix(k, v).ops, expected)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_remix(KrausSet(_diagonal_pair_ops(0.3, 0.8)), np.ones((2, 2)))


class TestVerifyChannel:
    def test_perfect_inputs(self, rng):
        rho0, rhot = random_density(rng), random_density(rng)
        k = general_qubit_kraus(rho0, rhot)
        assert verify_channel(k, rho0, rhot).passes(1e-9)
        assert choi_spectrum(k.ops)[0] >= -1e-9

    def test_choi_positive_for_all_constructors(self, rng):
        sets = [
            general_qubit_kraus(random_density(rng), random_density(rng)),
            measure_prepare_kraus(random_density(rng, d=3), random_density(rng, d=3)),
            factorable_kraus(random_unitary(rng, 4), random_density(rng), d_i=2),
        ]
        for k in sets:
            assert choi_spectrum(k.ops)[0] >= -1e-9

    def test_missing_operator_reported(self, rng):
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        dropped = KrausSet([k.ops[0]])
        rep = verify_channel(dropped, random_density(rng), random_density(rng))
        m1 = k.ops[1]
        assert rep.completeness_residual == pytest.approx(norm_max(dag(m1) @ m1))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            verify_channel(
                KrausSet([identity(2)]), random_density(rng, d=3), random_density(rng, d=3)
            )

    @pytest.mark.parametrize("layout", ["single", "stacked"])
    def test_a_qubit_pair_takes_no_spectrum(self, rng, eigvalsh_calls, layout):
        """Both states pass their certificates, and the output's smallest eigenvalue is a closed form: from
        validation to the report, a qubit pair makes no LAPACK eigenvalue call, pure states and the centre
        included."""
        special = [np.diag([1.0, 0.0]), bloch_matrix(1.0, 1.1, 2.3), identity(2) / 2]
        states = np.concatenate([special, ginibre_stack(rng, 5)])
        pairs = [(states, states[::-1])] if layout == "stacked" else list(zip(states, states[::-1]))
        for a, b in pairs:
            rho0, rhot = validate_density(a), validate_density(b)
            assert verify_channel(general_qubit_kraus(rho0, rhot), rho0, rhot).passes(EPS)
        assert eigvalsh_calls == []

    def test_a_qutrit_set_takes_one_spectrum(self, rng, eigvalsh_calls):
        rho0, rhot = random_density(rng, d=3), random_density(rng, d=3)
        k = measure_prepare_kraus(rho0, rhot)
        eigvalsh_calls.clear()  # those of random_density
        assert verify_channel(k, rho0, rhot).passes(EPS)
        assert eigvalsh_calls == [("verify_channel", (3, 3))]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_output_spectrum_only_of_a_finite_hermitian_part(self, rng):
        """A set whose output, or the Hermitian part of it, is not finite gets no spectrum and reads -inf;
        the other sets of its stack keep theirs, bit for bit."""
        rho0, rhot = validate_density(np.array([[0.75, 0.25], [0.25, 0.25]])), random_density(rng)
        k = general_qubit_kraus(rho0, rhot)
        for entry in (1e200, 1e154):  # at 1e154 the output is finite (1.5e308), its Hermitian part overflows
            big = np.zeros_like(k.ops)
            big[0] = entry
            ops = np.stack([k.ops, big], axis=1)
            report = verify_channel(KrausSet(ops), rho0, rhot)
            assert report.output_min_eigenvalue[0] == verify_channel(k, rho0, rhot).output_min_eigenvalue
            assert report.output_min_eigenvalue[1] == -np.inf
            assert verify_channel(KrausSet(ops[:, 1]), rho0, rhot).output_min_eigenvalue == -np.inf
            assert failures(report.checks(), EPS)["output_positivity"] == np.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_of_both_signs_reads_inf_not_nan(self, rng):
        """A finite set whose products overflow with both signs reads inf in each residual they overflow, not NaN;
        the other sets of its stack keep their bits."""
        rho = validate_density(np.diag([0.25, 0.75]))
        k = general_qubit_kraus(rho, random_density(rng))
        big = np.zeros_like(k.ops)
        big[0] = [[1e200, -1e200], [1e200, 1e200]]
        report = verify_channel(KrausSet(big), rho, rho)
        assert vars(report) == dict.fromkeys(vars(report), np.inf) | {"output_min_eigenvalue": -np.inf}
        stacked = verify_channel(KrausSet(np.stack([k.ops, big], axis=1)), rho, rho)
        alone = verify_channel(k, rho, rho)
        for field, values in vars(stacked).items():
            assert values[0] == getattr(alone, field) and values[1] == getattr(report, field)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_small_operator_keeps_its_share_of_an_overflowed_output(self):
        """[[1e200, 1e200], [0, 0]] annihilates |->, and I keeps it, so the set maps |-><-| to itself exactly; but
        the big operator's products overflow with both signs.  Each operator is contracted at its own scale, so I
        does not underflow at the big one's: both output residuals read 0, the completeness residual inf.  Two
        operators that overflow with both signs in one entry take the set's one scale, and read inf, not NaN."""
        minus = validate_density(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        report = verify_channel(KrausSet([[[1e200, 1e200], [0, 0]], identity(2)]), minus, minus)
        assert (report.reconstruction_residual, report.output_trace_residual) == (0.0, 0.0)
        assert report.completeness_residual == np.inf
        up = validate_density(np.diag([1.0, 0.0]))
        k = KrausSet([[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]])
        assert np.isnan(apply_kraus_raw(k, up.mat)).any()
        for rho in (up, validate_density(np.stack([up.mat, np.diag([0.0, 1.0])]))):
            report = verify_channel(k, rho, rho)
            assert not any(np.isnan(value).any() for value in vars(report).values())
            assert np.ravel(report.reconstruction_residual)[0] == np.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_completeness_overflow_with_a_finite_output_reads_inf(self):
        """Two columns overflow M^dagger M with both signs while the state lies in the third: the output and its
        residuals are finite, and the completeness residual reads inf, not NaN."""
        rho = validate_density(np.diag([0.0, 0.0, 1.0]))
        k = KrausSet([[[1e200, 1e200, 0], [1e200, -1e200, 0], [0, 0, 1]]])
        report = verify_channel(k, rho, rho)
        assert report.completeness_residual == k.completeness_residual() == np.inf
        assert (report.reconstruction_residual, report.output_trace_residual) == (0.0, 0.0)

    def test_failures_name_each_failing_check_in_field_order(self):
        report = ChannelReport(2e-9, 0.0, float("nan"), -3e-9)
        assert failures(report.checks(), 1e-9) == {
            "completeness_residual": 2e-9,
            "output_trace_residual": pytest.approx(float("nan"), nan_ok=True),
            "output_positivity": 3e-9,
        }
        assert not report.passes(1e-9)
        assert failures(ChannelReport(1e-9, 0.0, 1e-9, -1e-9).checks(), 1e-9) == {}


def _parent_passes(r: ChannelReport, tol: float) -> bool:
    """The verdict of ``ChannelReport.passes`` as one four-field expression: the oracle of the test below."""
    residuals_ok = (r.completeness_residual <= tol) & (r.reconstruction_residual <= tol)
    return bool(np.all(residuals_ok & (r.output_trace_residual <= tol) & (r.output_min_eigenvalue >= -tol)))


@st.composite
def verdict_cases(draw):
    """(tol, report): a report from ``reports`` or a stack of 0 to 4 of them,
    some fields moved to exactly tol or -tol."""
    tol = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-10, 1.0]))
    stacked = draw(st.booleans())
    rows = draw(st.lists(reports, min_size=0 if stacked else 1, max_size=4))
    values = np.array([list(vars(r).values()) for r in rows], dtype=float).reshape(-1, 4)
    moves = draw(st.lists(st.sampled_from([None, tol, -tol]), min_size=values.size, max_size=values.size))
    for i, value in enumerate(moves):
        if value is not None:
            values.flat[i] = value
    return tol, ChannelReport(*(values.T if stacked else values[0]))


@given(verdict_cases())
@settings(max_examples=500, deadline=None)
def test_passes_gives_the_parent_verdict(case):
    tol, report = case
    assert report.passes(tol) is _parent_passes(report, tol)


#: Entries that a stacked contraction must carry per set: NaN, infinities, a signed zero, and the edges of range.
SPECIAL_ENTRIES = (np.nan, np.inf, -np.inf, -0.0, 1e300, -1e300, 1e-300)


def _raw_bits(a):
    """The raw bits of a complex array, signed zeros included, with every NaN part made the one quiet NaN.

    IEEE 754 leaves the sign and payload of a NaN result open, and a set of 1 x 1 operators alone sums its
    products by another kernel than a stack, one that can give a NaN the other sign."""
    parts = np.ascontiguousarray(a).view(float)
    return np.where(np.isnan(parts), np.nan, parts).view(np.uint64)


class TestStackedSets:
    """A stack of square sets gives, bit for bit, what each of its sets gives alone.

    A stack of rectangular sets gives each set's Gram bit for bit, but its channel action only within
    rounding: ``np.einsum`` may order the sum of a rectangular stack differently from a set's alone."""

    @given(
        n=st.integers(1, 5),
        d_out=st.integers(1, 5),
        d_in=st.one_of(st.none(), st.integers(1, 5)),  # None: a square set
        batch=st.one_of(  # up to two stack axes, one of them up to 40 long
            st.tuples(), st.tuples(st.integers(0, 40)),
            st.tuples(st.integers(0, 40), st.integers(0, 4)), st.tuples(st.integers(0, 4), st.integers(0, 40)),
        ),
        special=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_each_set(self, n, d_out, d_in, batch, special, seed):
        d_in = d_out if d_in is None else d_in
        rng = np.random.default_rng(seed)
        shape = (n, *batch, d_out, d_in)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        parts = ops.reshape(-1).view(float)
        hits = rng.integers(parts.size, size=special) if parts.size else []
        parts[hits] = rng.choice(SPECIAL_ENTRIES, size=len(hits))
        k = KrausSet(ops)
        rho0, rhot = random_density(rng, d=d_in), random_density(rng, d=d_out)
        with np.errstate(all="ignore"):
            gram, completeness, out = _gram(k.ops), k.completeness_residual(), apply_kraus_raw(k, rho0.mat)
            report = verify_channel(k, rho0, rhot)
            for idx in np.ndindex(*batch):
                one = KrausSet(k.ops[(slice(None), *idx)])
                assert np.array_equal(_raw_bits(gram[idx]), _raw_bits(_gram(one.ops)))
                assert np.array_equal(completeness[idx], one.completeness_residual(), equal_nan=True)
                alone = apply_kraus_raw(one, rho0.mat)
                if d_out != d_in:  # within the rounding of a sum of terms whose moduli sum to `size`
                    size = apply_kraus_raw(KrausSet(np.abs(one.ops)), np.abs(rho0.mat)).real
                    finite = np.isfinite(alone)
                    assert np.array_equal(np.isfinite(out[idx]), finite)
                    assert np.all(np.abs(out[idx] - alone)[finite] <= bound(0, max(d_out, d_in)) * size[finite])
                    continue
                assert np.array_equal(out[idx], alone, equal_nan=True)
                single = verify_channel(one, rho0, rhot)
                for name, value in vars(report).items():
                    assert np.array_equal(np.asarray(value)[idx], getattr(single, name), equal_nan=True)

    def test_passes_when_every_set_passes(self, rng):
        rho0 = validate_density(np.stack([random_density(rng).mat for _ in range(3)]))
        rhot = validate_density(np.stack([random_density(rng).mat for _ in range(3)]))
        k = general_qubit_kraus(rho0, rhot)
        report = verify_channel(k, rho0, rhot)
        assert report.output_min_eigenvalue.shape == (3,)
        assert report.passes(1e-9)
        ops = k.ops.copy()
        ops[1, 2] = 0  # drop the second operator of the last set
        assert not verify_channel(KrausSet(ops), rho0, rhot).passes(1e-9)

    def test_single_set_report_holds_floats(self, rng):
        rho0, rhot = random_density(rng), random_density(rng)
        report = verify_channel(general_qubit_kraus(rho0, rhot), rho0, rhot)
        assert all(isinstance(value, float) for value in vars(report).values())

    def test_apply_channel_on_a_stack(self, rng):
        rho0 = validate_density(np.stack([random_density(rng).mat for _ in range(4)]))
        rhot = validate_density(np.stack([random_density(rng).mat for _ in range(4)]))
        out = apply_channel(general_qubit_kraus(rho0, rhot), rho0)
        assert norm_max(out.mat - rhot.mat).max() <= 1e-12
