import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krauslab import (
    CnotScenario,
    CompositeState,
    cnot_analytic_delta_rho,
    cnot_analytic_kraus,
    cnot_analytic_rho,
    cnot_hamiltonian,
    cnot_unitary,
    bloch_angles,
    closed_form_qubit_kraus,
    correlation_operator,
    evolve_joint,
    factor_local_unitary,
    factorable_kraus,
    general_qubit_kraus,
    kron,
    trace_distance,
    validate_density,
    verify_channel,
)
from krauslab.dynamics import SWEEP_COLUMNS, reduced_dynamics, sweep_columns
from krauslab.kraus import apply_kraus_raw
from krauslab.linalg import (
    EPS,
    bound,
    dag,
    expm_hermitian_generator,
    failures,
    identity,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_z,
)
from krauslab.states import DensityMatrix, density_violations

from conftest import edge_matrix, edge_tols, random_density, random_hermitian, random_unitary


def random_composite(rng):
    return CompositeState(mat=random_density(rng, d=4), d_i=2, d_e=2)


@given(
    dims=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2)]),
    tol=edge_tols,
    sign=st.sampled_from([-1, 1]),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    ts=st.lists(st.floats(-10, 10), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_states_at_the_edge_of_tol_survive_evolution_and_reduction(dims, tol, sign, rank, seed, ts):
    """A joint state that passes at tol, by as little as rounding allows, gives
    an evolved state and reduced states that pass the bounds of linalg.bound."""
    d_i, d_e = dims
    rng = np.random.default_rng(seed)
    m = edge_matrix(rng, d_i * d_e, tol, sign, min(rank, d_i * d_e))
    assume(not density_violations(m, tol))
    joint = CompositeState(mat=DensityMatrix(m, tol=tol), d_i=d_i, d_e=d_e)
    evolved = evolve_joint(random_hermitian(rng, d_i * d_e), joint, np.array(ts))
    for s in (joint, evolved):
        s.reduced_system()
        s.reduced_environment()


class TestCnotHamiltonian:
    def test_hermitian(self):
        h = cnot_hamiltonian()
        assert norm_max(h - dag(h)) == 0

    def test_construction_from_paulis(self):
        h = kron(pauli_x, (identity(2) - pauli_z) / 2) + kron(
            identity(2), (identity(2) + pauli_z) / 2
        )
        assert cnot_hamiltonian().tobytes() == h.tobytes()

    def test_one_shared_read_only_array(self):
        h = cnot_hamiltonian()
        assert cnot_hamiltonian() is h
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 2

    def test_exponential_matches_closed_form(self):
        h = cnot_hamiltonian()
        for t in np.arange(0.1, 3.01, 0.1):
            u = expm_hermitian_generator(h, t)
            assert norm_max(u - cnot_unitary(t)) <= 1e-9

    def test_block_structure(self):
        # |00>, |10> pick up the phase exp(-it); |01>, |11> mix
        u = cnot_unitary(0.9)
        p = np.exp(-1j * 0.9)
        assert u[0, 0] == pytest.approx(p)
        assert u[2, 2] == pytest.approx(p)
        assert u[1, 3] == pytest.approx(-1j * np.sin(0.9))
        assert u[3, 1] == pytest.approx(-1j * np.sin(0.9))


@pytest.mark.parametrize(
    "closed_form, shape",
    [(cnot_unitary, (4, 4)), (lambda t: cnot_analytic_delta_rho(CnotScenario(0.4), t), (2, 2))],
    ids=["cnot_unitary", "cnot_analytic_delta_rho"],
)
def test_closed_form_on_a_time_grid_is_the_per_t_loop(closed_form, shape):
    """An array of times gives the (..., d, d) stack, within a few ulps of the per-t
    matrices (numpy's trigonometry on an array may round differently)."""
    ts = np.linspace(-7.0, 7.0, 57)
    stacked = closed_form(ts)
    assert stacked.shape == (57, *shape)
    assert closed_form(ts.reshape(3, 19)).shape == (3, 19, *shape)
    assert np.max(norm_max(stacked - np.stack([closed_form(t) for t in ts]))) <= 4 * np.finfo(float).eps


class TestCnotScenario:
    def test_initial_reduced_states(self):
        sc = CnotScenario(0.5)
        joint = sc.initial_joint()
        expected = 0.5 * (identity(2) - 0.5 * pauli_z)
        assert norm_max(joint.reduced_system().mat - expected) <= 1e-12
        assert norm_max(joint.reduced_environment().mat - expected) <= 1e-12

    def test_endpoint_warns(self):
        """Each endpoint's warning says what degenerates there: at r0 = 0 the joint
        state is correlated and r_t(k*pi) = 0, at r0 = 1 it is a product state."""
        with pytest.warns(UserWarning, match="endpoint: the joint state is classically correlated"):
            sc = CnotScenario(0.0)
        assert sc.r_t(0.0) == 0.0
        assert norm_max(cnot_analytic_delta_rho(sc, np.pi / 4)) == pytest.approx(0.25)
        with pytest.warns(UserWarning, match="endpoint: the joint state is factorable"):
            CnotScenario(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CnotScenario(1.2)

    def test_r_t(self):
        sc = CnotScenario(0.5)
        assert sc.r_t(np.pi / 4) == pytest.approx(np.sqrt(0.625))
        assert sc.r_t(0.0) == pytest.approx(0.5)


class TestEvolveJoint:
    def test_t0_unchanged(self, rng):
        s = random_composite(rng)
        out = evolve_joint(random_hermitian(rng, 4), s, 0.0)
        assert norm_max(out.mat.mat - s.mat.mat) <= 1e-12

    def test_zero_hamiltonian(self, rng):
        s = random_composite(rng)
        out = evolve_joint(np.zeros((4, 4)), s, 2.7)
        assert norm_max(out.mat.mat - s.mat.mat) <= 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            evolve_joint(np.zeros((2, 2)), random_composite(rng), 1.0)


class TestReducedAndCorrelation:
    def test_product_state_reduction(self, rng):
        a, b = random_density(rng), random_density(rng)
        s = CompositeState(mat=validate_density(kron(a.mat, b.mat)), d_i=2, d_e=2)
        assert norm_max(s.reduced_system().mat - a.mat) <= 1e-12

    def test_factorable_correlation_vanishes(self, rng):
        a, b = random_density(rng), random_density(rng)
        s = CompositeState(mat=validate_density(kron(a.mat, b.mat)), d_i=2, d_e=2)
        assert norm_max(correlation_operator(s, s.reduced_system(), s.reduced_environment())) <= 1e-12

    def test_cnot_correlation_closed_form(self):
        sc = CnotScenario(0.5)
        joint = sc.initial_joint()
        cor = correlation_operator(joint, joint.reduced_system(), joint.reduced_environment())
        expected = 0.25 * (1 - 0.25) * kron(pauli_z, pauli_z)
        assert norm_max(cor - expected) <= 1e-12

    def test_correlation_traceless_with_vanishing_partial_traces(self, rng):
        from krauslab.linalg import partial_trace

        s = random_composite(rng)
        cor = correlation_operator(s, s.reduced_system(), s.reduced_environment())
        assert abs(np.trace(cor)) <= 1e-12
        assert norm_max(partial_trace(cor, (2, 2), 0)) <= 1e-12
        assert norm_max(partial_trace(cor, (2, 2), 1)) <= 1e-12


class TestDeltaRho:
    def test_factorable_gives_zero(self, rng):
        a, b = random_density(rng), random_density(rng)
        s = CompositeState(mat=validate_density(kron(a.mat, b.mat)), d_i=2, d_e=2)
        for t in (0.3, 1.7):
            assert norm_max(reduced_dynamics(random_hermitian(rng, 4), s, t).inhom) <= 1e-10

    def test_cnot_closed_form(self):
        sc = CnotScenario(0.5)
        joint = sc.initial_joint()
        h = cnot_hamiltonian()
        for t in np.linspace(0, 2 * np.pi, 20):
            assert norm_max(reduced_dynamics(h, joint, t).inhom - cnot_analytic_delta_rho(sc, t)) <= 1e-10

    def test_cnot_value_at_half_pi(self):
        sc = CnotScenario(0.5)
        d = reduced_dynamics(cnot_hamiltonian(), sc.initial_joint(), np.pi / 2).inhom
        assert norm_max(d - np.diag([0.375, -0.375])) <= 1e-10

    def test_traceless_hermitian(self, rng):
        s = random_composite(rng)
        d = reduced_dynamics(random_hermitian(rng, 4), s, 1.3).inhom
        assert abs(np.trace(d)) <= 1e-12
        assert norm_max(d - dag(d)) <= 1e-12

    def test_decomposition_identity(self, rng):
        # reduced dynamics = factorable channel + inhomogeneous term
        for _ in range(30):
            s = random_composite(rng)
            h = random_hermitian(rng, 4)
            t = float(rng.uniform(-3, 3))
            lhs = evolve_joint(h, s, t).reduced_system().mat
            u = expm_hermitian_generator(h, t)
            k = factorable_kraus(u, s.reduced_environment(), d_i=2)
            rhs = apply_kraus_raw(k, s.reduced_system().mat) + reduced_dynamics(h, s, t).inhom
            assert norm_max(lhs - rhs) <= 1e-9


class TestCnotAnalyticRho:
    def test_t0_is_initial_state(self):
        sc = CnotScenario(0.3)
        assert norm_max(cnot_analytic_rho(sc, 0.0).mat - sc.initial_reduced().mat) <= 1e-12

    def test_half_pi_is_pure(self):
        sc = CnotScenario(0.5)
        assert norm_max(cnot_analytic_rho(sc, np.pi / 2).mat - np.diag([1.0, 0.0])) <= 1e-12

    def test_quarter_pi_value(self):
        sc = CnotScenario(0.5)
        expected = np.array([[0.625, -0.375j], [0.375j, 0.375]])
        assert norm_max(cnot_analytic_rho(sc, np.pi / 4).mat - expected) <= 1e-12

    @pytest.mark.parametrize("r0", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_numerical_evolution(self, r0):
        sc = CnotScenario(r0)
        joint = sc.initial_joint()
        h = cnot_hamiltonian()
        for t in np.linspace(0, 2 * np.pi, 50):
            numeric = evolve_joint(h, joint, t).reduced_system().mat
            assert norm_max(numeric - cnot_analytic_rho(sc, t).mat) <= 1e-9


class TestCnotAnalyticKraus:
    def test_t0_fixed_point(self):
        sc = CnotScenario(0.4)
        k = cnot_analytic_kraus(sc, 0.0)
        rho0 = sc.initial_reduced()
        assert norm_max(apply_kraus_raw(k, rho0.mat) - rho0.mat) <= 1e-12

    def test_quarter_pi_reconstruction(self):
        sc = CnotScenario(0.5)
        k = cnot_analytic_kraus(sc, np.pi / 4)
        out = apply_kraus_raw(k, sc.initial_reduced().mat)
        expected = np.array([[0.625, -0.375j], [0.375j, 0.375]])
        assert norm_max(out - expected) <= 1e-12

    def test_random_sweep(self, rng):
        for _ in range(50):
            sc = CnotScenario(float(rng.uniform(0.05, 0.95)))
            t = float(rng.uniform(0, 2 * np.pi))
            k = cnot_analytic_kraus(sc, t)
            rep = verify_channel(k, sc.initial_reduced(), cnot_analytic_rho(sc, t))
            assert rep.completeness_residual <= 1e-9
            assert rep.reconstruction_residual <= 1e-9

    @given(
        k=st.integers(0, 8),
        log_offset=st.floats(-300, -5),
        sign=st.sampled_from([-1, 1]),
        r0=st.one_of(
            # 1 + EPS rounds to just above it, which the scenario rejects; the float below it is accepted
            st.sampled_from([0.0, 1e-12, 1 - 1e-12, 1.0, -EPS, -5e-11, 1 + 5e-11, np.nextafter(1 + EPS, 0)]),
            st.floats(0.05, 0.95),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_holds_near_multiples_of_half_pi(self, k, log_offset, sign, r0):
        # At t = k*pi/2 one of the two states is diagonal and, at r0 = 0, r_t
        # vanishes where sin(t)**2 underflows.  At the endpoints of r0, and
        # within EPS outside [0, 1], the scenario warns; above 1 the state's
        # own negative eigenvalue, up to EPS / 2, is what reconstruction misses.
        endpoint = not EPS < r0 < 1 - EPS
        with pytest.warns(UserWarning, match="endpoint") if endpoint else contextlib.nullcontext():
            sc = CnotScenario(r0)
        t = k * np.pi / 2 + sign * 10.0**log_offset
        rep = verify_channel(cnot_analytic_kraus(sc, t), sc.initial_reduced(), cnot_analytic_rho(sc, t))
        assert rep.completeness_residual <= 1e-10
        assert rep.reconstruction_residual <= 1e-10

    def test_nonzero_delta_rho_does_not_block_kraus(self):
        # the central point: a valid Kraus pair exists while the
        # inhomogeneous term is far from zero
        sc = CnotScenario(0.5)
        t = np.pi / 2
        assert norm_max(cnot_analytic_delta_rho(sc, t)) > 0.01
        rep = verify_channel(cnot_analytic_kraus(sc, t), sc.initial_reduced(), cnot_analytic_rho(sc, t))
        assert rep.reconstruction_residual <= 1e-9


class TestSectionTwoChannelEquivalence:
    def test_general_construction_agrees_on_initial_state(self, rng):
        for _ in range(20):
            sc = CnotScenario(float(rng.uniform(0.05, 0.95)))
            t = float(rng.uniform(0, 2 * np.pi))
            rho0 = sc.initial_reduced()
            rhot = cnot_analytic_rho(sc, t)
            out_general = apply_kraus_raw(general_qubit_kraus(rho0, rhot), rho0.mat)
            out_analytic = apply_kraus_raw(cnot_analytic_kraus(sc, t), rho0.mat)
            assert norm_max(out_general - out_analytic) <= 1e-9


def _scalar_sweep(h, joint, ts, sc):
    """The sweep table built one t at a time from the public scalar API."""
    rho0 = joint.reduced_system()
    rows = []
    for t in ts:
        numeric = evolve_joint(h, joint, t).reduced_system()
        analytic = cnot_analytic_rho(sc, t) if sc else numeric
        k = closed_form_qubit_kraus(rho0, analytic)
        r, theta, phi = bloch_angles(analytic.mat)
        rows.append(
            [
                t,
                r,
                theta,
                phi,
                sc.r_t(t) if sc else r,
                norm_max(reduced_dynamics(h, joint, t).inhom),
                k.completeness_residual(),
                norm_max(apply_kraus_raw(k, rho0.mat) - numeric.mat),
                trace_distance(analytic, numeric) if sc else np.nan,
            ]
        )
    return dict(zip(SWEEP_COLUMNS, np.array(rows, dtype=float).T))


@pytest.mark.parametrize("kind", ["cnot", "custom2", "custom3"])
def test_sweep_columns_match_the_scalar_api(kind, rng):
    ts = np.linspace(-0.5, 2 * np.pi, 37)
    if kind == "cnot":
        sc = CnotScenario(0.6)
        h, joint = cnot_hamiltonian(), sc.initial_joint()
    else:
        d_e = int(kind[-1])
        sc = None
        h = random_hermitian(rng, 2 * d_e)
        joint = CompositeState(mat=random_density(rng, d=2 * d_e), d_i=2, d_e=d_e)
    batched = sweep_columns(h, joint, ts, sc)
    reference = _scalar_sweep(h, joint, ts, sc)
    assert list(batched) == list(SWEEP_COLUMNS)
    for col in SWEEP_COLUMNS:
        np.testing.assert_allclose(batched[col], reference[col], rtol=0, atol=1e-12, err_msg=col)


@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
    ts=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3) | st.floats(-1, 1), min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_grid_is_the_per_time_products(dims, seed, ts):
    """reduced_dynamics on a grid, evolved in the eigenbasis of h, gives each time's
    U rho U^dagger, its reduction, tr_e{U cor U^dagger} and U itself, built from
    expm_hermitian_generator(h, t), within bound(0, d) for |t| up to 1e3."""
    d_i, d_e = dims
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d_i * d_e)
    joint = CompositeState(mat=random_density(rng, d=d_i * d_e), d_i=d_i, d_e=d_e)
    rd = reduced_dynamics(h, joint, np.array(ts))
    for k, t in enumerate(ts):
        u = expm_hermitian_generator(h, t)
        joint_t = u @ joint.mat.mat @ dag(u)
        expected = {
            "u": u,
            "joint_t": joint_t,
            "rho_i_t": partial_trace(joint_t, dims, keep=0),
            "inhom": partial_trace(u @ rd.cor @ dag(u), dims, keep=0),
        }
        got = {"u": rd.u[k], "joint_t": rd.joint_t.mat.mat[k], "rho_i_t": rd.rho_i_t.mat[k], "inhom": rd.inhom[k]}
        for name, want in expected.items():
            assert norm_max(got[name] - want) <= bound(0, d_i * d_e), (name, t)


@pytest.mark.parametrize("kind", ["cnot", "custom1", "custom2", "custom3"])
def test_decomposition_residual_on_a_grid_matches_each_time(kind, rng):
    """On a grid of times the residual of the decomposition is the scalar
    call's at each time, and zero to within the rounding of bound(EPS, d)."""
    ts = np.linspace(-1.5, 7, 9)
    if kind == "cnot":
        h, joint = cnot_hamiltonian(), CnotScenario(0.3).initial_joint()
    else:
        d_e = int(kind[-1])
        h = random_hermitian(rng, 2 * d_e)
        joint = CompositeState(mat=random_density(rng, d=2 * d_e), d_i=2, d_e=d_e)
    batched = reduced_dynamics(h, joint, ts).decomposition_residual()
    scalar = [reduced_dynamics(h, joint, t).decomposition_residual() for t in ts]
    np.testing.assert_allclose(batched, scalar, rtol=0, atol=bound(0, 2 * joint.d_e))
    assert not failures({"decomposition_residual": batched}, bound(EPS, 2 * joint.d_e))


class TestFactorLocalUnitary:
    def test_exact_product(self):
        u_i, u_e, residual = factor_local_unitary(kron(pauli_x, pauli_z), (2, 2), tol=1e-9)
        assert residual <= 1e-9
        assert norm_max(kron(u_i, u_e) - kron(pauli_x, pauli_z)) <= 1e-9

    def test_identity(self):
        u_i, u_e, residual = factor_local_unitary(identity(4), (2, 2), tol=1e-9)
        assert residual <= 1e-9
        assert norm_max(kron(u_i, u_e) - identity(4)) <= 1e-9

    def test_cnot_not_factorable(self):
        assert factor_local_unitary(cnot_unitary(np.pi / 4), (2, 2), tol=1e-9)[2] > 1e-9

    def test_random_products_factor(self, rng):
        for _ in range(50):
            u_i, u_e = random_unitary(rng, 2), random_unitary(rng, 2)
            f_i, f_e, residual = factor_local_unitary(kron(u_i, u_e), (2, 2), tol=1e-9)
            assert residual <= 1e-9
            assert norm_max(kron(f_i, f_e) - kron(u_i, u_e)) <= 1e-9

    def test_residual_is_the_product_distance(self, rng):
        """Factorable or not, the third value is |U_i (x) U_e - U|_max of the returned factors."""
        for u in (cnot_unitary(0.7), random_unitary(rng, 4), kron(random_unitary(rng, 2), random_unitary(rng, 2))):
            u_i, u_e, residual = factor_local_unitary(u, (2, 2))
            assert residual == norm_max(kron(u_i, u_e) - u)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            factor_local_unitary(np.ones((4, 4)), (2, 2))

    @pytest.mark.parametrize("dims", [(0, 5), (5, 0), (0, 0), (-1, -2)])
    def test_rejects_dims_below_one(self, dims):
        u = identity(max(dims[0] * dims[1], 0))  # the shape the dims ask for
        with pytest.raises(ValueError, match=rf"dims must be positive, got \[{dims[0]}, {dims[1]}\]"):
            factor_local_unitary(u, dims)

    @given(dims=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2)]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_products_factor_at_tol_zero(self, dims, seed):
        rng = np.random.default_rng(seed)
        u = kron(random_unitary(rng, dims[0]), random_unitary(rng, dims[1]))
        assert factor_local_unitary(u, dims, tol=0)[2] <= bound(0, dims[0] * dims[1])

    def test_near_product_follows_tol(self):
        """A product times exp(-i 1e-6 H_cnot) lies about 1e-6 from a product: --tol decides."""
        u = kron(pauli_x, pauli_z) @ expm_hermitian_generator(cnot_hamiltonian(), 1e-6)
        residual = factor_local_unitary(u, (2, 2), tol=1e-7)[2]
        assert not failures({"product": residual}, 1e-5 + bound(0, 4))
        assert failures({"product": residual}, 1e-7 + bound(0, 4))
