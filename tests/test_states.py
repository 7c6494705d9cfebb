import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krauslab import (
    BlochVector,
    DensityMatrix,
    Ordering,
    StateValidationError,
    bloch_to_density,
    density_to_bloch,
    diagonalize_state,
    trace_distance,
    validate_density,
)
from krauslab.linalg import EPS, identity, norm_max, pauli_x, pauli_z

from conftest import random_density


class TestBlochToDensity:
    def test_north_pole(self):
        rho = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
        assert np.allclose(rho.mat, np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        rho = bloch_to_density(BlochVector(0.0, 1.0, 2.0))
        assert np.allclose(rho.mat, identity(2) / 2)

    def test_general_matrix_form(self):
        r, theta, phi = 0.6, 1.1, 2.3
        rho = bloch_to_density(BlochVector(r, theta, phi))
        expected = 0.5 * np.array(
            [
                [1 + r * np.cos(theta), r * np.sin(theta) * np.exp(-1j * phi)],
                [r * np.sin(theta) * np.exp(1j * phi), 1 - r * np.cos(theta)],
            ]
        )
        assert norm_max(rho.mat - expected) <= 1e-15

    def test_rejects_r_above_one(self):
        with pytest.raises(ValueError):
            BlochVector(1.5, 0.0, 0.0)


class TestDensityToBloch:
    def test_south_pole_state(self):
        rho = validate_density(0.5 * (identity(2) - 0.5 * pauli_z))
        b = density_to_bloch(rho)
        assert b.r == pytest.approx(0.5)
        assert b.theta == pytest.approx(np.pi)
        assert b.phi == 0.0

    def test_pure_north(self):
        b = density_to_bloch(validate_density(np.diag([1.0, 0.0])))
        assert (b.r, b.theta, b.phi) == pytest.approx((1.0, 0.0, 0.0))

    def test_degenerate_convention(self):
        b = density_to_bloch(validate_density(identity(2) / 2))
        assert (b.r, b.theta, b.phi) == (0.0, 0.0, 0.0)

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            density_to_bloch(validate_density(identity(3) / 3))

    @given(
        r=st.floats(1e-6, 1.0),
        theta=st.floats(1e-6, np.pi - 1e-6),
        phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, r, theta, phi):
        b = density_to_bloch(bloch_to_density(BlochVector(r, theta, phi)))
        assert b.r == pytest.approx(r, abs=1e-9)
        assert b.theta == pytest.approx(theta, abs=1e-9)
        # phi wraps around; compare on the circle
        dphi = abs((b.phi - phi + np.pi) % (2 * np.pi) - np.pi)
        assert dphi <= 1e-6 / max(r * np.sin(theta), 1e-9) or dphi <= 1e-9

    def test_eigenvalues_match_radius(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            r = density_to_bloch(rho).r
            assert rho.eigenvalues() == pytest.approx([(1 + r) / 2, (1 - r) / 2], abs=1e-10)


class TestValidateDensity:
    def test_valid_correlated_joint(self):
        mat = np.diag([0.25, 0.0, 0.0, 0.75]).astype(complex)
        rho = validate_density(mat)
        assert rho.eigenvalues() == pytest.approx([0.75, 0.25, 0.0, 0.0], abs=1e-12)

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

    def test_accepts_all_bloch_states(self, rng):
        for _ in range(50):
            r = rng.uniform(0, 1)
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            bloch_to_density(BlochVector(r, theta, phi))  # must not raise


class TestDiagonalizeState:
    def test_minus_first_eigenvalues(self):
        rho = bloch_to_density(BlochVector(0.5, 1.2, 0.4))
        d = diagonalize_state(rho, Ordering.MINUS_FIRST)
        assert np.allclose(np.diagonal(d.diagonal()), [0.25, 0.75])

    def test_plus_first_eigenvalues(self):
        rho = bloch_to_density(BlochVector(0.5, 1.2, 0.4))
        d = diagonalize_state(rho, Ordering.PLUS_FIRST)
        assert np.allclose(np.diagonal(d.diagonal()), [0.75, 0.25])

    def test_pure_plus_first_basis(self):
        d = diagonalize_state(validate_density(np.diag([1.0, 0.0])), Ordering.PLUS_FIRST)
        # theta = 0: basis is the identity up to sign conventions
        assert norm_max(np.abs(d.basis) - identity(2)) <= 1e-12

    def test_degenerate_basis_is_identity(self):
        d = diagonalize_state(validate_density(identity(2) / 2), Ordering.MINUS_FIRST)
        assert np.allclose(d.basis, identity(2))

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_reconstruction(self, rng, ordering):
        for _ in range(50):
            rho = random_density(rng, rank=int(rng.integers(1, 3)))
            d = diagonalize_state(rho, ordering)
            assert norm_max(d.reconstruct() - rho.mat) <= 10 * EPS


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
