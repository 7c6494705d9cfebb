import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krauslab import (
    DensityMatrix,
    StateValidationError,
    bloch_angles,
    diagonalize_state,
    trace_distance,
    validate_density,
)
from krauslab.linalg import EPS, bound, dag, eigh, failures, identity, norm_max, pauli_x, pauli_z
from krauslab.states import density_violations

from conftest import bloch_state, random_density, random_unitary


class TestBlochToDensity:
    """``bloch_matrix``: polar Bloch coordinates to the state matrix."""

    def test_north_pole(self):
        rho = bloch_state(1.0, 0.0, 0.0)
        assert np.allclose(rho.mat, np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        rho = bloch_state(0.0, 1.0, 2.0)
        assert np.allclose(rho.mat, identity(2) / 2)

    def test_general_matrix_form(self):
        r, theta, phi = 0.6, 1.1, 2.3
        rho = bloch_state(r, theta, phi)
        expected = 0.5 * np.array(
            [
                [1 + r * np.cos(theta), r * np.sin(theta) * np.exp(-1j * phi)],
                [r * np.sin(theta) * np.exp(1j * phi), 1 - r * np.cos(theta)],
            ]
        )
        assert norm_max(rho.mat - expected) <= 1e-15

    def test_rejects_r_above_one(self):
        # the radius is bounded by positivity: (1 - r) / 2 is the smaller eigenvalue
        with pytest.raises(StateValidationError, match="positive residual 2.500e-01"):
            bloch_state(1.5, 0.0, 0.0)


class TestDensityToBloch:
    """``bloch_angles``: the state matrix to polar Bloch coordinates."""

    def test_south_pole_state(self):
        r, theta, phi = bloch_angles(0.5 * (identity(2) - 0.5 * pauli_z))
        assert r == pytest.approx(0.5)
        assert theta == pytest.approx(np.pi)
        assert phi == 0.0

    def test_pure_north(self):
        assert bloch_angles(np.diag([1.0, 0.0])) == pytest.approx((1.0, 0.0, 0.0))

    def test_degenerate_convention(self):
        assert bloch_angles(identity(2) / 2) == (0.0, 0.0, 0.0)

    def test_rejects_non_qubit(self):
        # bloch_angles reads entries; the qubit check is diagonalize_state's and the constructors'
        with pytest.raises(ValueError, match="needs a qubit"):
            diagonalize_state(validate_density(identity(3) / 3), plus_first=True)

    @given(
        r=st.floats(1e-6, 1.0),
        theta=st.floats(1e-6, np.pi - 1e-6),
        phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, r, theta, phi):
        r_back, theta_back, phi_back = bloch_angles(bloch_state(r, theta, phi).mat)
        assert r_back == pytest.approx(r, abs=1e-9)
        assert theta_back == pytest.approx(theta, abs=1e-9)
        # phi wraps around; compare on the circle
        dphi = abs((phi_back - phi + np.pi) % (2 * np.pi) - np.pi)
        assert dphi <= 1e-6 / max(r * np.sin(theta), 1e-9) or dphi <= 1e-9

    def test_eigenvalues_match_radius(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            r = bloch_angles(rho.mat)[0]
            assert eigh(rho.mat)[0] == pytest.approx([(1 + r) / 2, (1 - r) / 2], abs=1e-10)


class TestValidateDensity:
    def test_valid_correlated_joint(self):
        mat = np.diag([0.25, 0.0, 0.0, 0.75]).astype(complex)
        rho = validate_density(mat)
        assert eigh(rho.mat)[0] == pytest.approx([0.75, 0.25, 0.0, 0.0], abs=1e-12)

    def test_trace_two(self):
        with pytest.raises(StateValidationError) as exc:
            validate_density(identity(2))
        assert exc.value.violations["unit_trace"] == pytest.approx(1.0)

    def test_traceless(self):
        with pytest.raises(StateValidationError) as exc:
            validate_density(0.5 * pauli_x)
        assert "unit_trace" in exc.value.violations

    def test_negative_eigenvalue(self):
        with pytest.raises(StateValidationError) as exc:
            validate_density(np.diag([1.5, -0.5]))
        assert "positive" in exc.value.violations

    def test_message_names_each_residual_and_the_bound_it_missed(self):
        with pytest.raises(StateValidationError) as exc:
            validate_density(np.diag([0.5 + 2.4e-10, 0.5 + 2.4e-10]), tol=4e-10)
        assert str(exc.value) == "not a valid density matrix: unit_trace residual 4.800e-10 > tol 4.000e-10"
        assert exc.value.violations == {"unit_trace": pytest.approx(4.8e-10)}
        with pytest.raises(StateValidationError) as exc:
            validate_density(np.diag([1.5, -0.5]) + 0.1 * pauli_x @ pauli_z)
        assert str(exc.value) == (
            "not a valid density matrix: hermitian residual 2.000e-01 > tol 1.000e-10, "
            "positive residual 5.000e-01 > tol 1.000e-10"
        )

    def test_hermitian_part_neither_overflows_nor_rounds(self):
        """Positivity is read off the Hermitian part m - (m - m^dagger) / 2: finite where
        m + m^dagger overflows, and exact on a subnormal entry, which halving m first rounds away."""
        with np.errstate(over="ignore"):  # the trace overflows
            got = density_violations(np.array([[1e308, 1.7e308], [1.7e308, 1e308]]))
        assert got == {"unit_trace": math.inf, "positive": pytest.approx(7e307, rel=1e-12)}
        assert density_violations(np.diag([-5e-324, 1.0]), tol=0.0) == {"positive": 5e-324}
        assert density_violations(np.diag([5e-324, 1.0]), tol=0.0) == {}

    def test_stack_fails_on_its_worst_state(self, rng):
        good = [random_density(rng).mat for _ in range(4)]
        assert validate_density(np.stack(good)).dim == 2
        bad = {
            "hermitian": good[0] + 0.1 * pauli_x @ pauli_z,
            "unit_trace": 1.1 * good[1],
            "positive": np.diag([1.3, -0.3]),
        }
        for name, mat in bad.items():
            with pytest.raises(StateValidationError) as exc:
                validate_density(np.stack([good[2], mat, good[3]]))
            assert exc.value.violations[name] == pytest.approx(density_violations(mat)[name])

    def test_accepts_all_bloch_states(self, rng):
        for _ in range(50):
            r = rng.uniform(0, 1)
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            bloch_state(r, theta, phi)  # must not raise


def _in_basis(d, rho):
    """``rho`` written in the basis of the diagonalized state ``d``: diagonal when ``d`` diagonalizes it."""
    return dag(d.basis) @ rho.mat @ d.basis


class TestDiagonalizeState:
    def test_minus_first_eigenvalues(self):
        rho = bloch_state(0.5, 1.2, 0.4)
        d = diagonalize_state(rho, plus_first=False)
        assert norm_max(_in_basis(d, rho) - np.diag([0.25, 0.75])) <= 10 * EPS

    def test_plus_first_eigenvalues(self):
        rho = bloch_state(0.5, 1.2, 0.4)
        d = diagonalize_state(rho, plus_first=True)
        assert norm_max(_in_basis(d, rho) - np.diag([0.75, 0.25])) <= 10 * EPS

    def test_pure_plus_first_basis(self):
        d = diagonalize_state(validate_density(np.diag([1.0, 0.0])), plus_first=True)
        # theta = 0: basis is the identity up to sign conventions
        assert norm_max(np.abs(d.basis) - identity(2)) <= 1e-12

    @pytest.mark.parametrize("plus_first", [False, True], ids=["minus-first", "plus-first"])
    def test_reconstruction(self, rng, plus_first):
        for _ in range(50):
            rho = random_density(rng, rank=int(rng.integers(1, 3)))
            d = diagonalize_state(rho, plus_first)
            layout = [d.eig_plus, d.eig_minus] if plus_first else [d.eig_minus, d.eig_plus]
            assert norm_max(_in_basis(d, rho) - np.diag(layout)) <= 10 * EPS


class TestTraceDistance:
    def test_zero_on_equal(self, rng):
        rho = random_density(rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_mixed_vs_pure(self):
        a = validate_density(identity(2) / 2)
        b = validate_density(np.diag([1.0, 0.0]))
        assert trace_distance(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(validate_density(identity(2) / 2), validate_density(identity(3) / 3))

    @given(
        pairs=st.lists(
            st.tuples(
                st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), st.floats(0, np.pi), st.floats(0, 2 * np.pi)),
                st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), st.floats(0, np.pi), st.floats(0, 2 * np.pi)),
                st.sampled_from(["drawn", "equal"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_qubit_closed_form_is_the_spectrum(self, pairs):
        """On a stack of qubit pairs, equal states, pure pairs and the Bloch centre
        included, the closed form is LAPACK's half trace norm within bound(0, 2)."""
        a = np.stack([bloch_state(*first).mat for first, _, _ in pairs])
        b = np.stack([bloch_state(*(first if kind == "equal" else second)).mat for first, second, kind in pairs])
        got = trace_distance(validate_density(a), validate_density(b))
        assert got.shape == (len(pairs),)
        assert np.max(np.abs(got - 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(-1))) <= bound(0, 2)
        assert (got[[kind == "equal" for _, _, kind in pairs]] == 0).all()


def test_density_matrix_dim():
    assert DensityMatrix(np.eye(4) / 4).dim == 4


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_entry_is_never_valid(d, value):
    for i in range(d):
        for j in range(d):
            m = identity(d) / d
            m[i, j] = value
            with pytest.raises(StateValidationError):
                validate_density(m)


def _spectrum_violations(m, tol):
    """``density_violations`` with positivity always read off LAPACK's eigvalsh: the oracle for the certificate."""
    m = np.asarray(m, dtype=complex)
    res = {
        "hermitian": float(abs(m - dag(m)).max(initial=0.0)),
        "unit_trace": float(abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0)),
    }
    if math.isfinite(res["hermitian"]):
        res["positive"] = -float(np.linalg.eigvalsh((m + dag(m)) / 2).min(initial=np.inf))
    return failures(res, tol)


@st.composite
def edge_stacks(draw):
    """(stack, tol): 2-64 Hermitian d x d matrices, d = 2..6, at the edge of positivity at tol.

    Each matrix is V diag(spectrum) V^dagger, exactly Hermitian, with its
    spectrum in [0, norm].  For one matrix, or about half of them, the
    smallest eigenvalue is set to -tol, one ulp either side of it, or 0;
    rounding moves it by a few ulps of the norm, to either side of the edge.
    Sometimes one entry is NaN or infinite.
    """
    d, n = draw(st.integers(2, 6)), draw(st.integers(2, 64))
    tol = draw(st.sampled_from([0.0, 5e-324, 1e-10, 1e-3]))
    edge = draw(st.sampled_from([-tol, np.nextafter(-tol, -np.inf), np.nextafter(-tol, np.inf), 0.0]))
    norm = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectra = rng.uniform(0, norm, size=(n, d))
    at_edge = rng.random(n) < draw(st.sampled_from([0.0, 0.5]))  # one matrix at the edge, or about half
    at_edge[rng.integers(n)] = True
    spectra[at_edge, 0] = edge
    if draw(st.booleans()):
        v = np.stack([random_unitary(rng, d) for _ in spectra])
        m = (v * spectra[:, None, :]) @ dag(v)
        m = (m + dag(m)) / 2
    else:
        m = spectra[:, :, None] * identity(d)
    entry = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.nan)]))
    if entry is not None:
        m[rng.integers(n), rng.integers(d), rng.integers(d)] = entry
    return m, tol


class TestPositivityCertificate:
    """A stack's positivity comes from a Cholesky certificate, or from LAPACK's spectrum when it fails."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @given(edge_stacks())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_spectrum_on_edge_stacks(self, stack_tol):
        m, tol = stack_tol
        assert repr(density_violations(m, tol)) == repr(_spectrum_violations(m, tol))

    @pytest.mark.parametrize(
        "mat, tol",
        [
            # h + tol I would overflow to an infinite diagonal entry, whose factor raises nothing
            ([[0.8e308, 0.8e308], [0.8e308, -0.8e308]], 1e308),
            # tol equal to the margin leaves the first pivot 1e-20: the first column overflows, and the
            # NaN pivot that follows raises nothing
            ([[1e-20, 0, 1e300], [0, 1, 0], [1e300, 0, 1]], bound(0, 3) * 3 * 1e300),
        ],
        ids=["overflowing-shift", "nan-pivot"],
    )
    def test_a_factor_that_is_not_finite_proves_nothing(self, mat, tol):
        m = np.stack([np.array(mat, dtype=complex)] * 2)
        assert repr(density_violations(m, tol)) == repr(_spectrum_violations(m, tol))
        assert "positive" in density_violations(m, tol)

    def test_failing_stack_reports_the_spectrum_residual(self, rng, eigvalsh_calls):
        stack = np.stack([random_density(rng, d=4).mat for _ in range(8)])
        v = random_unitary(rng, 4)
        stack[5] = v @ np.diag([0.5, 0.3, 0.2 + 3e-9, -3e-9]) @ dag(v)  # one eigenvalue below -tol
        eigvalsh_calls.clear()  # those of random_density
        got = density_violations(stack, tol=1e-10)
        assert eigvalsh_calls == [("_positivity_residual", stack.shape)]
        assert list(got) == ["positive"]
        assert repr(got) == repr(_spectrum_violations(stack, 1e-10))
