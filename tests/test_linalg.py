import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krauslab import dynamics, kraus, linalg, serialize
from krauslab.linalg import (
    EPS,
    bound,
    dag,
    eigh,
    expm_hermitian_generator,
    failures,
    identity,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_y,
    pauli_z,
    require,
    unitarity_residual,
)
from krauslab.states import validate_density

from conftest import edge_tols, random_density, random_hermitian, random_unitary


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

    def test_failures_passes_at_the_bound(self):
        assert failures({"scalar": 1e-10, "stack": np.array([0.0, -1.0, 1e-10])}, 1e-10) == {}
        assert failures({"scalar": np.nextafter(1e-10, 1), "stack": np.array([0.0, 2e-10])}, 1e-10) == {
            "scalar": np.nextafter(1e-10, 1),
            "stack": 2e-10,
        }

    def test_failures_nan_fails_and_is_the_worst(self):
        failed = failures({"scalar": float("nan"), "stack": np.array([0.0, np.nan, 1.0])}, 1e-10)
        assert list(failed) == ["scalar", "stack"]
        assert all(np.isnan(v) for v in failed.values())

    def test_failures_empty_stack_passes(self):
        assert failures({"empty": np.zeros(0), "empty2d": np.zeros((0, 3))}, 0.0) == {}
        assert failures({}, 0.0) == {}

    def test_failures_negative_zero(self):
        """-0.0 is 0: it passes at a zero bound, as 0.0 does, and only a positive residual fails there."""
        assert failures({"a": -0.0, "b": np.array([-0.0, 0.0])}, 0.0) == {}
        assert failures({"a": 0.0}, -0.0) == {}
        assert failures({"a": 5e-324}, -0.0) == {"a": 5e-324}

    def test_failures_keep_the_order_given(self):
        checks = {name: 1.0 + i for i, name in enumerate(["z", "a", "m", "b"])}
        checks["ok"] = 0.0
        assert list(failures(checks, 0.5)) == ["z", "a", "m", "b"]
        assert list(failures(dict(reversed(checks.items())), 0.5)) == ["b", "m", "a", "z"]

    def test_failures_values_are_floats(self):
        failed = failures({"scalar": np.float64(2.0), "stack": np.array([[1.0, 3.0]])}, 0.5)
        assert failed == {"scalar": 2.0, "stack": 3.0}
        assert all(type(v) is float for v in failed.values())


class TestBound:
    def test_values(self):
        ulp = np.finfo(float).eps
        assert bound(0, 4) == 512 * ulp
        assert bound(1e-10, 2) == 4e-10 + 64 * ulp

    @given(d=st.integers(2, 6), tol=edge_tols, seed=st.integers(0, 2**32 - 1), aligned=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_covers_a_perturbed_unitary(self, d, tol, seed, aligned):
        """A unitary moved entrywise by at most tol has unitarity residual <= bound(tol, d).

        Phases that follow the unitary's entries are the worst case: the
        residual's diagonal grows by 2 tol times a column's 1-norm, up to 2 sqrt(d) tol.
        """
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, d)
        if aligned:
            e = tol * u / np.abs(u)
        else:
            e = tol * rng.random((d, d)) * np.exp(2j * np.pi * rng.random((d, d)))
        assert unitarity_residual(u + e) <= bound(tol, d)

    def test_growth_d_is_too_small(self):
        """A flat unitary moved by tol along its own phases reaches 2 sqrt(d) tol > d tol at d = 2."""
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        tol = 1e-6
        residual = unitarity_residual(h + tol * np.sign(h))
        assert 2 * tol < residual <= bound(tol, 2)
        assert residual == pytest.approx(2 * np.sqrt(2) * tol, rel=1e-6)


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
_PAIR = kraus.KrausSet([np.eye(2)])

#: Every guard that compares a residual with a bound: entry point -> (call, error, words of its message).
GUARDED = {
    "eigh": (lambda: eigh(_nan(2)), ValueError, "not Hermitian: residual nan"),
    "factorable_kraus": (lambda: kraus.factorable_kraus(_nan(4), _mixed(), d_i=2), ValueError, "unitary"),
    "unitary_remix": (lambda: kraus.unitary_remix(_PAIR, _nan(2)), ValueError, "unitary"),
    "factor_local_unitary": (lambda: dynamics.factor_local_unitary(_nan(4), (2, 2)), ValueError, "unitary"),
    "CnotScenario": (lambda: dynamics.CnotScenario(float("nan")), ValueError, r"r0 outside \[0, 1\]: residual nan"),
    # the decoder rejects the non-finite entry before the Hermiticity check
    "scenario_from_json": (lambda: serialize.scenario_from_json(_NAN_SCENARIO), serialize.DecodeError, "non-finite"),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_every_guard_rejects_nan(name):
    """A NaN fails every residual check: each guarded entry point raises, none returns NaN."""
    call, error, words = GUARDED[name]
    with pytest.raises(error, match=words):
        call()


@st.composite
def hermitian_stacks(draw):
    """A stack of 1 to 6 Hermitian d x d matrices, d = 1..5: random ones, states of every
    rank, and matrices with tied eigenvalues (rotated or diagonal, I/d and 0 included)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    kinds = st.sampled_from(["hermitian", "state", "tied", "diagonal", "maximally-mixed"])
    mats = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "hermitian":
            mats.append(random_hermitian(rng, d))
        elif kind == "state":
            mats.append(random_density(rng, d, rank=int(rng.integers(1, d + 1))).mat)
        elif kind == "maximally-mixed":
            mats.append(identity(d) / d)
        else:
            diagonal = np.diag(rng.integers(0, 2, size=d).astype(complex))
            u = random_unitary(rng, d) if kind == "tied" else identity(d)
            mats.append(u @ diagonal @ dag(u))
    return np.stack(mats)


class TestEigh:
    def test_sigma_z(self):
        values, vectors = eigh(pauli_z)
        assert np.allclose(values, [1, -1])
        assert np.allclose(vectors, identity(2))

    def test_qubit_state_eigenvalues(self):
        # eigenvalues of a qubit state with Bloch radius r are (1 +/- r) / 2;
        # cross-checked with the characteristic polynomial of the 2x2 matrix
        r0, theta0, phi0 = 0.5, np.pi / 2, 0.0
        n = r0 * np.array([np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
        rho = 0.5 * (identity(2) + n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z)
        tr, det = np.trace(rho).real, np.linalg.det(rho).real
        disc = np.sqrt(tr * tr - 4 * det)
        char_roots = sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)
        values, _ = eigh(rho)
        assert values == pytest.approx([0.75, 0.25])
        assert values == pytest.approx(char_roots)

    def test_degenerate(self):
        values, vectors = eigh(identity(2) / 2)
        assert np.allclose(values, [0.5, 0.5])
        assert norm_max(vectors @ np.diag(values) @ dag(vectors) - identity(2) / 2) <= 10 * EPS

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(3, 2, 3), (3,)])
    def test_rejects_a_non_square_stack_and_a_vector(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            eigh(np.zeros(shape))

    def test_ties_come_in_the_reverse_of_lapack_order(self):
        """The tie rule: a degenerate spectrum keeps LAPACK's eigenvectors, in reverse order."""
        values, vectors = eigh(identity(3) / 3)
        assert np.array_equal(values, np.full(3, 1 / 3))
        assert np.array_equal(vectors, np.linalg.eigh(identity(3) / 3)[1][:, ::-1])
        assert np.array_equal(vectors, np.eye(3)[:, ::-1])

    @given(stack=hermitian_stacks())
    @example(stack=np.array([[[0.5, 6e-16 + 1e-16j], [6e-16 - 1e-16j, 0.5]]]))  # a near-tie of moduli
    @settings(max_examples=100, deadline=None)
    def test_stack_is_the_per_matrix_loop(self, stack):
        """A (N, d, d) stack gives (N, d) values and (N, d, d) vectors, each sorted and
        phase-fixed, within a few ulps of the per-matrix calls (SIMD paths differ across hosts).
        The phase pivot is read on LAPACK's vectors, as ``eigh`` reads it: on a near-tie of
        moduli the phase fix can make another entry of the output the largest."""
        n, d = stack.shape[:2]
        values, vectors = eigh(stack)
        assert values.shape == (n, d) and vectors.shape == (n, d, d)
        assert np.all(np.diff(values, axis=-1) <= 0)
        lapack = np.linalg.eigh((stack + dag(stack)) / 2)[1][..., ::-1]
        k = np.abs(lapack).argmax(axis=-2)[..., None, :]
        pivot = np.take_along_axis(vectors, k, axis=-2)
        assert np.all(np.abs(pivot.imag) <= 1e-12) and np.all(pivot.real > 0)
        loop_values, loop_vectors = map(np.stack, zip(*map(eigh, stack)))
        scale = np.maximum(1, np.abs(loop_values).max(axis=-1, keepdims=True))
        assert np.all(np.abs(values - loop_values) <= 4 * np.finfo(float).eps * scale)
        assert np.all(norm_max(vectors - loop_vectors) <= 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_reconstruction_and_unitarity(self, rng, d):
        for _ in range(20):
            m = random_hermitian(rng, d)
            values, vectors = eigh(m)
            assert norm_max(vectors @ np.diag(values) @ dag(vectors) - m) <= 1e-12 * max(1, norm_max(m))
            assert norm_max(dag(vectors) @ vectors - identity(d)) <= 1e-12
            assert all(x >= y for x, y in zip(values, values[1:]))

    def test_phase_convention(self, rng):
        for _ in range(20):
            m = random_hermitian(rng, 4)
            _, v = eigh(m)
            lapack = np.linalg.eigh((m + dag(m)) / 2)[1][:, ::-1]  # the pivot is read before the phase fix
            for j in range(4):
                k = int(np.argmax(np.abs(lapack[:, j])))
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

    @pytest.mark.parametrize("t", [1e10, np.array([0.0, 1e300])], ids=["time", "grid"])
    def test_overflowing_phase_is_rejected(self, t):
        """t * lambda = 1e310 has no phase: a named ValueError, not a NaN propagator."""
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"t \* eigenvalue of H is not finite"):
            linalg.eigenphases(linalg.eigh(1e300 * identity(2)), t)


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
