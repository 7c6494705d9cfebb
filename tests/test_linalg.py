import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krauslab import dynamics, kraus, linalg, serialize
from krauslab.linalg import (
    EPS,
    dag,
    eigh,
    expm_hermitian_generator,
    identity,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_y,
    pauli_z,
    require,
)
from krauslab.states import validate_density

from conftest import random_hermitian


def test_identity_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        identity(2)[0, 1] = 1
    assert np.array_equal(identity(2), np.eye(2))


def test_pauli_matrices_hermitian():
    for p in (pauli_x, pauli_y, pauli_z):
        assert norm_max(p - dag(p)) == 0


def test_pauli_involution():
    for p in (pauli_x, pauli_y, pauli_z):
        assert np.allclose(p @ p, identity(2))


def test_trace_identity():
    assert np.trace(identity(2)) == 2


def test_norms():
    assert norm_max(np.zeros((2, 2))) == 0.0


class TestRequire:
    def test_passes_at_the_bound_and_without_residuals(self):
        require(1e-10, 1e-10, "check")
        require(np.array([0.0, -1.0, 1e-10]), 1e-10, "check")
        require(np.zeros((0, 3)), 0.0, "check")

    def test_names_check_worst_residual_and_bound(self):
        with pytest.raises(ValueError, match=r"^check: residual 3\.000e-01 > tol 1\.000e-10$"):
            require(np.array([0.1, 0.3, 0.2]), 1e-10, "check")

    def test_nan_fails(self):
        with pytest.raises(ValueError, match=r"residual nan > tol"):
            require(np.array([0.0, np.nan]), 1e-10, "check")

    def test_raises_the_given_error(self):
        class Custom(ValueError):
            pass

        with pytest.raises(Custom):
            require(1.0, 0.5, "check", error=Custom)


def _nan(d: int) -> np.ndarray:
    """A d x d identity with one NaN off-diagonal entry."""
    m = np.eye(d, dtype=complex)
    m[0, 1] = np.nan
    return m


def _mixed():
    return validate_density(np.eye(2) / 2)


_NAN_SCENARIO = {
    "scenario": "custom",
    "hamiltonian": {"rows": 4, "cols": 4, "data": [[float("nan"), 0.0]] * 16},
    "rho_ie0": serialize.matrix_to_json(np.eye(4) / 4),
    "dims": [2, 2],
}
_PAIR = kraus.kraus_set([np.eye(2)])

#: Every guard that compares a residual with a bound: entry point -> (call, error, words of its message).
GUARDED = {
    "eigh": (lambda: eigh(_nan(2)), ValueError, "not Hermitian: residual nan"),
    "apply_channel": (
        lambda: kraus.apply_channel(kraus.kraus_set([_nan(2)]), _mixed()), ValueError, "completeness: residual nan"
    ),
    "conjugate_kraus-u_out": (lambda: kraus.conjugate_kraus(_PAIR, _nan(2), np.eye(2)), ValueError, "u_out"),
    "conjugate_kraus-u_in": (lambda: kraus.conjugate_kraus(_PAIR, np.eye(2), _nan(2)), ValueError, "u_in"),
    "factorable_kraus": (lambda: kraus.factorable_kraus(_nan(4), _mixed(), d_i=2), ValueError, "unitary"),
    "unitary_remix": (lambda: kraus.unitary_remix(_PAIR, _nan(2)), ValueError, "unitary"),
    "_sqrt_clamped": (lambda: kraus._sqrt_clamped(np.array([0.25, np.nan])), ValueError, "radicand"),
    "factor_local_unitary": (lambda: dynamics.factor_local_unitary(_nan(4), (2, 2)), ValueError, "unitary"),
    # the decoder rejects the non-finite entry before the Hermiticity check
    "scenario_from_json": (lambda: serialize.scenario_from_json(_NAN_SCENARIO), serialize.DecodeError, "non-finite"),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_every_guard_rejects_nan(name):
    """A NaN fails every residual check: each guarded entry point raises, none returns NaN."""
    call, error, words = GUARDED[name]
    with pytest.raises(error, match=words):
        call()


class TestEigh:
    def test_sigma_z(self):
        decomp = eigh(pauli_z)
        assert np.allclose(decomp.values, [1, -1])
        assert np.allclose(decomp.vectors, identity(2))

    def test_qubit_state_eigenvalues(self):
        # eigenvalues of a qubit state with Bloch radius r are (1 +/- r) / 2;
        # cross-checked with the characteristic polynomial of the 2x2 matrix
        r0, theta0, phi0 = 0.5, np.pi / 2, 0.0
        n = r0 * np.array([np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
        rho = 0.5 * (identity(2) + n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z)
        tr, det = np.trace(rho).real, np.linalg.det(rho).real
        disc = np.sqrt(tr * tr - 4 * det)
        char_roots = sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)
        decomp = eigh(rho)
        assert decomp.values == pytest.approx([0.75, 0.25])
        assert decomp.values == pytest.approx(char_roots)

    def test_degenerate(self):
        decomp = eigh(identity(2) / 2)
        assert np.allclose(decomp.values, [0.5, 0.5])
        assert norm_max(decomp.reconstruct() - identity(2) / 2) <= 10 * EPS

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_reconstruction_and_unitarity(self, rng, d):
        for _ in range(20):
            m = random_hermitian(rng, d)
            decomp = eigh(m)
            assert norm_max(decomp.reconstruct() - m) <= 1e-12 * max(1, norm_max(m))
            assert norm_max(dag(decomp.vectors) @ decomp.vectors - identity(d)) <= 1e-12
            assert all(x >= y for x, y in zip(decomp.values, decomp.values[1:]))

    def test_phase_convention(self, rng):
        for _ in range(20):
            m = random_hermitian(rng, 4)
            v = eigh(m).vectors
            for j in range(4):
                k = int(np.argmax(np.abs(v[:, j])))
                assert abs(v[k, j].imag) <= 1e-12
                assert v[k, j].real >= 0


class TestExpm:
    def test_identity_at_t0(self, rng):
        h = random_hermitian(rng, 4)
        assert norm_max(expm_hermitian_generator(h, 0.0) - identity(4)) <= 1e-12

    def test_sigma_z_pi(self):
        # scalar exponentiation of the +/- 1 eigenvalues
        u = expm_hermitian_generator(pauli_z, np.pi)
        assert norm_max(u + identity(2)) <= 1e-12

    @given(t=st.floats(-10, 10), s=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_unitarity_and_group_law(self, t, s, seed):
        h = random_hermitian(np.random.default_rng(seed), 3)
        u_t = expm_hermitian_generator(h, t)
        assert norm_max(dag(u_t) @ u_t - identity(3)) <= 1e-9
        u_s = expm_hermitian_generator(h, s)
        u_ts = expm_hermitian_generator(h, t + s)
        assert norm_max(u_ts - u_t @ u_s) <= 1e-9


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(identity(2), identity(2)), identity(4))

    def test_diagonal(self):
        assert np.allclose(
            kron(np.diag([2.0, 3.0]), identity(2)), np.diag([2.0, 2.0, 3.0, 3.0])
        )

    def test_mixed_product(self, rng):
        for _ in range(20):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert norm_max(lhs - rhs) <= 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        out = partial_trace(kron(a, b), (2, 3), keep=0)
        assert norm_max(out - a * np.trace(b)) <= 1e-12
        out = partial_trace(kron(a, b), (2, 3), keep=1)
        assert norm_max(out - b * np.trace(a)) <= 1e-12

    def test_trace_preserved(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for keep in (0, 1):
            assert np.trace(partial_trace(m, (2, 3), keep)) == pytest.approx(np.trace(m))

    def test_linearity(self, rng):
        m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = partial_trace(2 * m1 + 3 * m2, (2, 2), 0)
        rhs = 2 * partial_trace(m1, (2, 2), 0) + 3 * partial_trace(m2, (2, 2), 0)
        assert norm_max(lhs - rhs) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 3), 0)


def test_default_tolerance():
    assert linalg.EPS == 1e-10
