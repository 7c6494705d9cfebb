import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from krauslab import (
    correlation_operator,
    evolve_joint,
    factor_local_unitary,
    general_qubit_kraus,
    kron,
    pauli_x,
    pauli_z,
    reduced_dynamics,
    validate_density,
)
from krauslab import cli, states
from krauslab.cli import KRAUS_METHODS, RESIDUAL_COLUMNS, build_parser, main
from krauslab.dynamics import SWEEP_COLUMNS, ReducedDynamics, cnot_eigensystem, sweep_columns
from krauslab.kraus import apply_kraus_raw, factorable_kraus
from krauslab.linalg import EPS, bound, eigenphases, expm_hermitian_generator, norm_max
from krauslab.serialize import dumps, kraus_to_json, load, matrix_from_json, matrix_to_json, scenario_from_json

from conftest import dump, random_density, random_hermitian, strict_loads, write_state


@pytest.fixture
def cnot_scenario(tmp_path):
    path = str(tmp_path / "cnot.json")
    dump({"scenario": "cnot", "r0": 0.5}, path)
    return path


class TestValidate:
    def test_valid_state(self, tmp_path, rng, capsys):
        path = write_state(tmp_path, "rho.json", random_density(rng))
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_invalid_state(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        dump({"matrix": matrix_to_json(np.diag([1.5, -0.5]))}, path)
        assert main(["validate", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert "positive" in out["violations"]

    def test_non_finite_residual_is_null(self, tmp_path, capsys):
        """Finite entries near the float maximum overflow the trace residual: JSON has no
        Infinity, so the one-line document writes null for it."""
        path = str(tmp_path / "huge.json")
        dump({"matrix": matrix_to_json(np.array([[1e308, 1.7e308], [1.7e308, 1e308]]))}, path)
        assert main(["validate", path]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert strict_loads(out) == {"valid": False, "violations": {"unit_trace": None, "positive": pytest.approx(7e307)}}

    def test_malformed_json(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert main(["validate", path]) == 2
        assert "parse error" in capsys.readouterr().err


class TestKraus:
    def test_identical_states(self, tmp_path, rng, capsys):
        rho = random_density(rng)
        p = write_state(tmp_path, "rho.json", rho)
        assert main(["--tol", "1e-9", "kraus", p, p]) == 0

    def test_cnot_pair(self, tmp_path, capsys):
        rho0 = np.array([[0.25, 0], [0, 0.75]], dtype=complex)
        rhot = np.array([[0.625, -0.375j], [0.375j, 0.375]])
        p0 = str(tmp_path / "rho0.json")
        pt = str(tmp_path / "rhot.json")
        dump({"matrix": matrix_to_json(rho0)}, p0)
        dump({"matrix": matrix_to_json(rhot)}, pt)
        out_path = str(tmp_path / "kraus.json")
        assert main(["--tol", "1e-9", "--out", out_path, "kraus", p0, pt]) == 0
        with open(out_path) as fh:
            obj = json.load(fh)
        assert len(obj["ops"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["reconstruction_residual"] <= 1e-9

    def test_non_positive_input_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        good = write_state(tmp_path, "good.json", random_density(np.random.default_rng(0)))
        dump({"matrix": matrix_to_json(np.diag([1.5, -0.5]))}, bad)
        assert main(["kraus", bad, good]) == 2

    def test_method_choices_are_the_table(self, capsys):
        code, out, _ = _call(["kraus", "--help"], capsys)
        assert code == 0 and "--method {" + ",".join(KRAUS_METHODS) + "}" in out
        for method in KRAUS_METHODS:
            assert build_parser().parse_args(["kraus", "a", "b", "--method", method]).method == method
        assert _call(["kraus", "a", "b", "--method", "bloch"], capsys)[0] == 2

    @pytest.mark.parametrize("method", list(KRAUS_METHODS))
    def test_each_method_writes_its_constructors_set(self, method, tmp_path, rng, capsys):
        rho0, rhot = random_density(rng), random_density(rng)
        a, b, out = write_state(tmp_path, "a.json", rho0), write_state(tmp_path, "b.json", rhot), str(tmp_path / "k.json")
        assert main(["--tol", "1e-9", "--out", out, "kraus", a, b, "--method", method]) == 0
        assert load(out) == kraus_to_json(KRAUS_METHODS[method](rho0, rhot))
        capsys.readouterr()

    def test_measure_prepare_method(self, tmp_path, rng):
        p0 = write_state(tmp_path, "a.json", random_density(rng, d=3))
        pt = write_state(tmp_path, "b.json", random_density(rng, d=3))
        assert main(["--tol", "1e-9", "kraus", p0, pt, "--method", "measure-prepare"]) == 0

    @pytest.mark.parametrize("near_first", [False, True], ids=["to-pole", "from-pole"])
    @pytest.mark.parametrize("method", ["general", "closed-form"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"matrix": matrix_to_json(np.array([[0.75, 1.5e-9 - 1.5e-9j], [1.5e-9 + 1.5e-9j, 0.25]]))},
            {"bloch": {"r": 0.5, "theta": 6e-9, "phi": 0.7}},
        ],
        ids=["matrix", "bloch"],
    )
    def test_state_near_a_pole_exits_0(self, doc, method, near_first, tmp_path, capsys):
        """Bloch vectors (3e-9, 3e-9, 0.5) and theta = 6e-9 are reached at the
        default tol: a polar angle read by arccos(z / r) missed them by up to 2e-9."""
        near = str(tmp_path / "near.json")
        dump(doc, near)
        other = write_state(tmp_path, "other.json", validate_density(np.array([[0.5, 0.25], [0.25, 0.5]])))
        pair = [near, other] if near_first else [other, near]
        code, out, err = _call(["--out", str(tmp_path / "k.json"), "kraus", *pair, "--method", method], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["reconstruction_residual"] <= 1e-15


class TestEvolve:
    def test_cnot_half_pi(self, cnot_scenario, capsys):
        assert main(["--tol", "1e-9", "evolve", cnot_scenario, "--t", str(np.pi / 2)]) == 0
        out = json.loads(capsys.readouterr().out)
        rho = matrix_from_json(out["rho_i_t"])
        assert norm_max(rho - np.diag([1.0, 0.0])) <= 1e-9
        d = matrix_from_json(out["delta_rho"])
        assert norm_max(d - np.diag([0.375, -0.375])) <= 1e-9

    def test_t0_delta_zero(self, cnot_scenario, capsys):
        assert main(["--tol", "1e-9", "evolve", cnot_scenario, "--t", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert norm_max(matrix_from_json(out["delta_rho"])) <= 1e-12

    def test_factorable_custom_scenario(self, tmp_path, rng, capsys):
        a, b = random_density(rng), random_density(rng)
        path = str(tmp_path / "custom.json")
        dump(
            {
                "scenario": "custom",
                "hamiltonian": matrix_to_json(kron(pauli_x, pauli_z)),
                "rho_ie0": matrix_to_json(kron(a.mat, b.mat)),
                "dims": [2, 2],
            },
            path,
        )
        assert main(["--tol", "1e-9", "evolve", path, "--t", "1.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert norm_max(matrix_from_json(out["delta_rho"])) <= 1e-10

    @pytest.mark.parametrize("kind", ["cnot", "custom3"])
    def test_diagonalises_h_once(self, kind, cnot_scenario, tmp_path, rng, eigh_shapes, capsys):
        """One eigh of a custom joint Hamiltonian per call and none of the CNOT constant, whose eigensystem
        the warm-up evolution below already cached; the same output as evolving, taking the inhomogeneous
        term and exponentiating h separately."""
        path = cnot_scenario
        if kind == "custom3":
            path = str(tmp_path / "custom.json")
            dump(_custom(random_hermitian(rng, 6), dims=(2, 3), rho=random_density(rng, d=6).mat), path)
        t = 0.7
        h, joint, _ = scenario_from_json(load(path))
        rho_i0, rho_e0 = joint.reduced_system(), joint.reduced_environment()
        rho_t = evolve_joint(h, joint, t).reduced_system()
        inhom = reduced_dynamics(h, joint, t).inhom
        u = expm_hermitian_generator(h, t)
        homogeneous = apply_kraus_raw(
            factorable_kraus(u, rho_e0, d_i=joint.d_i), rho_i0.mat
        )
        expected = {
            "t": t,
            "rho_i_t": matrix_to_json(rho_t.mat),
            "delta_rho": matrix_to_json(inhom),
            "rho_cor_0": matrix_to_json(correlation_operator(joint, rho_i0, rho_e0)),
            "decomposition_residual": norm_max(rho_t.mat - homogeneous - inhom),
        }
        eigh_shapes.clear()
        assert main(["evolve", path, "--t", repr(t)]) == 0
        assert eigh_shapes.count(h.shape) == (0 if kind == "cnot" else 1)
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_validates_each_state_once(self, cnot_scenario, monkeypatch, capsys):
        """Five states, each validated once: the decoded joint state, rho_i(0),
        rho_e(0), the evolved joint state and rho_i(t)."""
        calls = []
        violations = states.density_violations

        def counting_violations(m, *args, **kwargs):
            calls.append(np.shape(m))
            return violations(m, *args, **kwargs)

        monkeypatch.setattr(states, "density_violations", counting_violations)
        assert main(["evolve", cnot_scenario, "--t", "0.7"]) == 0
        assert sorted(calls) == [(2, 2)] * 3 + [(4, 4)] * 2


class TestSweep:
    def test_cnot_grid(self, cnot_scenario, capsys):
        code = main(
            ["--tol", "1e-9", "sweep", cnot_scenario, "--t-start", "0", "--t-end", str(np.pi), "--steps", "65"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) == 66
        idx = {name: i for i, name in enumerate(SWEEP_COLUMNS)}
        for row in rows[1:]:
            assert float(row[idx["completeness_residual"]]) <= 1e-9
            assert float(row[idx["reconstruction_residual"]]) <= 1e-9
            assert float(row[idx["trace_distance_analytic_vs_numeric"]]) <= 1e-9

    def test_two_point_grid(self, cnot_scenario, capsys):
        assert main(["sweep", cnot_scenario, "--t-start", "0", "--t-end", "1", "--steps", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3  # header + 2 data rows

    def test_degenerate_grid(self, cnot_scenario, capsys):
        code = main(["sweep", cnot_scenario, "--t-start", "1", "--t-end", "1", "--steps", "5"])
        assert code == 2
        assert "degenerate grid" in capsys.readouterr().err

    def test_bad_steps(self, cnot_scenario):
        assert main(["sweep", cnot_scenario, "--t-start", "0", "--t-end", "1", "--steps", "1"]) == 2

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)"),
             "error: Unable to allocate 74.5 GiB for an array with shape (10000000000,)\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_grid_too_large_for_memory_exits_2(self, cnot_scenario, monkeypatch, capsys, exc, message):
        def linspace(*args, **kwargs):  # raises as numpy does, allocating nothing
            raise exc

        monkeypatch.setattr(np, "linspace", linspace)
        argv = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "1", "--steps", "10000000000"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("kind", ["cnot", "custom3"])
    def test_passing_sweep_takes_no_spectrum_of_a_stacked_state(self, tmp_path, rng, eigvalsh_calls, kind):
        """Every stacked state of a passing sweep is proved positive by its Cholesky certificate, and every
        single qubit by its scalar one: only the single joint state gets the spectrum, and for custom3 the
        single qutrit environment state."""
        path = str(tmp_path / "scenario.json")
        if kind == "cnot":
            dump({"scenario": "cnot", "r0": 0.5}, path)
        else:
            dump(_custom(random_hermitian(rng, 6), dims=(2, 3), rho=random_density(rng, d=6).mat), path)
        eigvalsh_calls.clear()  # those of random_density
        assert main(["sweep", path, "--t-start", "0", "--t-end", "3", "--steps", "100"]) == 0
        positivity = {shape for caller, shape in eigvalsh_calls if caller == "_positivity_residual"}
        assert positivity == ({(4, 4)} if kind == "cnot" else {(6, 6), (3, 3)})

    def test_determinism(self, cnot_scenario, capsys):
        args = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "2", "--steps", "10"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_second_cnot_sweep_takes_no_eigh(self, cnot_scenario, eigh_shapes, capsys):
        """The CNOT eigensystem is computed once per process: the first sweep after the cache is cleared makes
        one eigh of shape (4, 4), a second makes none, and both print the same bytes."""
        cnot_eigensystem.cache_clear()
        args = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "3", "--steps", "20"]
        outputs = []
        for expected in (1, 0):
            eigh_shapes.clear()
            assert main(args) == 0
            assert eigh_shapes.count((4, 4)) == expected
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_r0_zero_through_t0(self, tmp_path, capsys):
        """At r0 = 0, r_t = 0 at t = 0: the pair is defined there too, and that
        row's Kraus residuals are rounding like the others'."""
        path = str(tmp_path / "r0.json")
        dump({"scenario": "cnot", "r0": 0}, path)
        with pytest.warns(UserWarning, match="endpoint"):
            code = main(["sweep", path, "--t-start", "0", "--t-end", "1", "--steps", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[0]["r_t"]) == 0.0
        for col in ("completeness_residual", "reconstruction_residual"):
            assert float(rows[0][col]) <= bound(0, 4)
            assert all(float(row[col]) <= 1e-10 for row in rows[1:])

    def test_r0_zero_warns_once_at_the_caller(self, tmp_path, capsys):
        """The endpoint warning is issued once, by the decoder that builds the
        scenario, not by the dataclass-generated __init__."""
        path = str(tmp_path / "r0.json")
        dump({"scenario": "cnot", "r0": 0}, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", path, "--t-start", "0", "--t-end", "1", "--steps", "3"]) == 0
        endpoint = [w for w in caught if issubclass(w.category, UserWarning)]
        assert len(endpoint) == 1
        assert "endpoint" in str(endpoint[0].message)
        assert endpoint[0].filename != "<string>"
        capsys.readouterr()

    def test_trace_distance_needs_a_closed_form(self, cnot_scenario, tmp_path, rng, capsys):
        """The CNOT closed form is compared with the numeric state; a custom
        scenario has no closed form, so its distance column is NaN, which JSON writes as null."""
        custom = str(tmp_path / "custom.json")
        dump(_custom(random_hermitian(rng, 4), rho=random_density(rng, d=4).mat), custom)
        grid = ["--t-start", "0", "--t-end", "3", "--steps", "9", "--format", "json"]
        for path, closed_form in ((cnot_scenario, True), (custom, False)):
            assert main(["sweep", path, *grid]) == 0
            dists = [row["trace_distance_analytic_vs_numeric"] for row in strict_loads(capsys.readouterr().out)]
            if closed_form:
                assert all(d <= 1e-10 for d in dists)
            else:
                assert all(d is None for d in dists)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_qutrit_system_has_only_t_and_delta_rho(self, fmt, tmp_path, rng, capsys):
        """With d_i = 3 the Bloch and Kraus columns and the closed-form distance do
        not exist: t and delta_rho_maxnorm are finite, the other 7 columns NaN in
        CSV and null in JSON, which has no NaN."""
        path = str(tmp_path / "qutrit.json")
        dump(_custom(random_hermitian(rng, 6), dims=(3, 2), rho=random_density(rng, d=6).mat), path)
        code, out, err = _call(["sweep", path, "--t-start", "0", "--t-end", "2", "--steps", "5", "--format", fmt], capsys)
        assert (code, err) == (0, "")
        rows = strict_loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        for row in rows:
            assert list(row) == list(SWEEP_COLUMNS)
            values = {col: float("nan" if value is None else value) for col, value in row.items()}
            assert [col for col, value in values.items() if math.isfinite(value)] == ["t", "delta_rho_maxnorm"]
            assert sum(math.isnan(value) for value in values.values()) == 7
            assert sum(value == {"json": None, "csv": "nan"}[fmt] for value in row.values()) == 7

    def test_exit_1_names_column_worst_t_and_residual(self, cnot_scenario, monkeypatch, capsys):
        """At --tol 1e-18 the rounding of every column passes 1e-18 + bound(0, 4);
        columns that really miss are each named with their worst residual and its t."""
        argv = ["--tol", "1e-18", "sweep", cnot_scenario, "--t-start", "0", "--t-end", "3", "--steps", "31"]
        code, out, err = _call([*argv, "--format", "json"], capsys)
        rows = json.loads(out)
        assert any(row[col] > 1e-18 for row in rows for col in RESIDUAL_COLUMNS)
        assert (code, err) == (0, "")
        for col in ("completeness_residual", "reconstruction_residual"):
            _shift_sweep_column(monkeypatch, col, 1e-9)
        code, out, err = _call([*argv, "--format", "json"], capsys)
        rows = json.loads(out)
        failing = [col for col in RESIDUAL_COLUMNS if max(row[col] for row in rows) > 1e-18 + bound(0, 4)]
        assert failing == ["completeness_residual", "reconstruction_residual"]
        expected = []
        for col in failing:
            worst = max(rows, key=lambda row: row[col])
            expected.append(f"sweep: {col} {worst[col]:.3e} > tol 1.000e-18, worst at t = {worst['t']:.12g}")
        assert code == 1
        assert err.splitlines() == expected


class TestVerify:
    def test_good_set(self, tmp_path, rng):
        rho0, rhot = random_density(rng), random_density(rng)
        k = general_qubit_kraus(rho0, rhot)
        kp = str(tmp_path / "k.json")
        dump(kraus_to_json(k), kp)
        p0 = write_state(tmp_path, "rho0.json", rho0)
        pt = write_state(tmp_path, "rhot.json", rhot)
        assert main(["--tol", "1e-9", "verify", kp, p0, pt]) == 0

    def test_wrong_target_fails(self, tmp_path, rng):
        rho0, rhot, other = (random_density(rng) for _ in range(3))
        k = general_qubit_kraus(rho0, rhot)
        kp = str(tmp_path / "k.json")
        dump(kraus_to_json(k), kp)
        p0 = write_state(tmp_path, "rho0.json", rho0)
        po = write_state(tmp_path, "other.json", other)
        assert main(["--tol", "1e-9", "verify", kp, p0, po]) == 1


    @pytest.mark.parametrize("method", list(KRAUS_METHODS))
    def test_qubit_files_take_no_spectrum(self, tmp_path, rng, eigvalsh_calls, method, capsys):
        """kraus, then verify on the set it wrote: the qubit states pass their certificates and the output's
        smallest eigenvalue is a closed form, so neither command makes a LAPACK eigenvalue call."""
        p0 = write_state(tmp_path, "rho0.json", random_density(rng))
        pt = str(tmp_path / "rhot.json")
        dump({"bloch": {"r": 1.0, "theta": 0.7, "phi": 2.1}}, pt)
        kp = str(tmp_path / "k.json")
        eigvalsh_calls.clear()  # those of random_density
        assert main(["--out", kp, "kraus", p0, pt, "--method", method]) == 0
        assert main(["verify", kp, p0, pt]) == 0
        assert eigvalsh_calls == []
        capsys.readouterr()


class TestRemix:
    def test_identity_remix_preserves_ops(self, tmp_path, rng, capsys):
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        kp = str(tmp_path / "k.json")
        vp = str(tmp_path / "v.json")
        dump(kraus_to_json(k), kp)
        dump(matrix_to_json(np.eye(2)), vp)
        assert main(["remix", kp, vp]) == 0
        out = json.loads(capsys.readouterr().out)
        for got, orig in zip(out["ops"], kraus_to_json(k)["ops"]):
            assert got == orig

    def test_non_unitary_rejected(self, tmp_path, rng):
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        kp = str(tmp_path / "k.json")
        vp = str(tmp_path / "v.json")
        dump(kraus_to_json(k), kp)
        dump(matrix_to_json(np.ones((2, 2))), vp)
        assert main(["remix", kp, vp]) == 2


class TestFactor:
    def test_product_factors(self, tmp_path, capsys):
        up = str(tmp_path / "u.json")
        dump(matrix_to_json(kron(pauli_x, pauli_z)), up)
        assert main(["--tol", "1e-9", "factor", up, "--dims", "2", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["factorable"] is True
        u_i = matrix_from_json(out["u_i"])
        u_e = matrix_from_json(out["u_e"])
        assert norm_max(kron(u_i, u_e) - kron(pauli_x, pauli_z)) <= 1e-9

    def test_entangling_unitary(self, tmp_path, rng, capsys):
        from krauslab import cnot_unitary

        up = str(tmp_path / "u.json")
        dump(matrix_to_json(cnot_unitary(np.pi / 4)), up)
        assert main(["factor", up, "--dims", "2", "2"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["factorable"] is False
        residual = factor_local_unitary(cnot_unitary(np.pi / 4), (2, 2))[2]
        assert captured.err == f"factor: product {residual:.3e} > tol {EPS:.3e}\n"


def _nan_state(i, j):
    m = np.eye(2, dtype=complex) / 2
    m[i, j] = np.nan
    return {"matrix": matrix_to_json(m)}


def _custom(h, dims=(2, 2), rho=None):
    return {
        "scenario": "custom",
        "hamiltonian": matrix_to_json(h),
        "rho_ie0": matrix_to_json(np.eye(4) / 4 if rho is None else rho),
        "dims": list(dims),
    }


def _non_hermitian():
    h = kron(pauli_x, pauli_z)
    h[0, 1] = 1.0
    return h


#: A matrix whose one entry is a JSON integer too large for a float.
_HUGE_INT = {"rows": 1, "cols": 1, "data": [[10**400, 0]]}

#: JSON values that a real-valued field (a Bloch coordinate, r0) must reject.
NOT_NUMBERS = {"string": "0.5", "bool": True, "null": None, "nan": float("nan")}

BAD_STATES = {
    **{f"nan-{i}{j}": _nan_state(i, j) for i in range(2) for j in range(2)},
    "data-not-pairs": {"matrix": {"rows": 2, "cols": 2, "data": [0.5, 0, 0, 0.5]}},
    "bloch-nan": {"bloch": {"r": 0.5, "theta": float("nan"), "phi": 0.0}},
    **{
        f"bloch-{key}-{label}": {"bloch": {"r": 0.5, "theta": 1.0, "phi": 0.0, key: value}}
        for key in ("r", "theta", "phi")
        for label, value in NOT_NUMBERS.items()
    },
}
BAD_SCENARIOS = {
    "hamiltonian-not-hermitian": _custom(_non_hermitian()),
    "hamiltonian-2x2-for-dims-2x2": _custom(np.eye(2)),
    "hamiltonian-4x2": _custom(np.zeros((4, 2))),
    "hamiltonian-data-not-pairs": {
        **_custom(np.eye(4)),
        "hamiltonian": {"rows": 4, "cols": 4, "data": [1] * 16},
    },
    "dims-negative": _custom(np.eye(4), dims=(-2, -2)),
    "dims-string": {**_custom(np.eye(4)), "dims": "22"},
    "dims-fractional": _custom(np.eye(2), dims=(2.7, 1), rho=np.eye(2) / 2),
    "cnot-r0-nan": {"scenario": "cnot", "r0": float("nan")},
    **{f"cnot-r0-{label}": {"scenario": "cnot", "r0": value} for label, value in NOT_NUMBERS.items() if label != "nan"},
}
CONTRACT_CASES = [
    *(
        (name, doc, argv)
        for name, doc in BAD_STATES.items()
        for argv in (["validate", "{bad}"], ["kraus", "{bad}", "{good}"], ["kraus", "{good}", "{bad}"])
    ),
    *(
        (name, doc, argv)
        for name, doc in BAD_SCENARIOS.items()
        for argv in (
            ["evolve", "{bad}", "--t", "1"],
            ["sweep", "{bad}", "--t-start", "0", "--t-end", "1", "--steps", "3"],
        )
    ),
    ("qutrit-general", {"matrix": matrix_to_json(np.eye(3) / 3)}, ["kraus", "{bad}", "{bad}"]),
    ("qutrit-to-qubit", {"matrix": matrix_to_json(np.eye(3) / 3)},
     ["kraus", "{bad}", "{good}", "--method", "measure-prepare"]),
    ("qutrit-vs-qubit-kraus-set", {"matrix": matrix_to_json(np.eye(3) / 3)},
     ["verify", "{kraus}", "{bad}", "{bad}"]),
    ("kraus-d-out-fractional", {"d_in": "2", "d_out": 2.9, "ops": [matrix_to_json(np.eye(2))]},
     ["verify", "{bad}", "{good}", "{good}"]),
    ("empty-unitary", {"rows": 0, "cols": 0, "data": []}, ["factor", "{bad}", "--dims", "0", "5"]),
    ("huge-int", {"matrix": _HUGE_INT}, ["validate", "{bad}"]),
    ("huge-int", {"d_in": 1, "d_out": 1, "ops": [_HUGE_INT]}, ["verify", "{bad}", "{good}", "{good}"]),
    ("huge-int", {**_custom(np.eye(4)), "hamiltonian": {"rows": 4, "cols": 4, "data": [[10**400, 0]] * 16}},
     ["evolve", "{bad}", "--t", "1"]),
    ("huge-int", _HUGE_INT, ["remix", "{kraus}", "{bad}"]),
    ("huge-int", _HUGE_INT, ["factor", "{bad}", "--dims", "1", "1"]),
    ("no-such-file", None, ["validate", "{bad}"]),
    ("directory", None, ["validate", "{dir}"]),
]


@pytest.mark.parametrize(
    "doc,argv", [case[1:] for case in CONTRACT_CASES], ids=[f"{c[0]}-{c[2][0]}" for c in CONTRACT_CASES]
)
def test_invalid_input_exits_2(tmp_path, doc, argv, capsys):
    """Every invalid input gives exit 2 with a message, never an exception."""
    mixed = validate_density(np.eye(2) / 2)
    good = write_state(tmp_path, "good.json", mixed)
    bad = str(tmp_path / "bad.json")
    if doc is not None:
        dump(doc, bad)
    kraus = str(tmp_path / "k.json")
    dump(kraus_to_json(general_qubit_kraus(mixed, mixed)), kraus)
    paths = {"good": good, "bad": bad, "kraus": kraus, "dir": str(tmp_path)}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


#: JSON nested deeper than the parser recurses, bare and as a state's matrix.
DEEP_JSON = {"bare": "[" * 100000 + "]" * 100000, "matrix": '{"matrix": ' + "[" * 100000 + "]" * 100000 + "}"}

#: Every subcommand that reads a file, with the deep file in its first file argument.
FILE_READERS = {
    "validate": ["validate", "{deep}"],
    "kraus": ["kraus", "{deep}", "{good}"],
    "evolve": ["evolve", "{deep}", "--t", "1"],
    "sweep": ["sweep", "{deep}", "--t-start", "0", "--t-end", "1", "--steps", "3"],
    "verify": ["verify", "{deep}", "{good}", "{good}"],
    "remix": ["remix", "{deep}", "{good}"],
    "factor": ["factor", "{deep}", "--dims", "1", "1"],
}


@pytest.mark.parametrize("text", DEEP_JSON.values(), ids=DEEP_JSON)
@pytest.mark.parametrize("argv", FILE_READERS.values(), ids=FILE_READERS)
def test_deeply_nested_json_exits_2(tmp_path, argv, text, capsys):
    """JSON too deeply nested to parse is malformed JSON: exit 2 and one error line, no RecursionError."""
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    good = write_state(tmp_path, "good.json", validate_density(np.eye(2) / 2))
    assert main([a.format(deep=deep, good=good) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: JSON parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": matrix_to_json(np.diag([1 + 1e-6, -1e-6]))},
        {"bloch": {"r": 1 + 2e-6, "theta": 0.4, "phi": 1.0}},
    ],
    ids=["matrix", "bloch"],
)
def test_tol_gives_one_verdict_for_validate_and_kraus(tmp_path, doc, capsys):
    """A state 1e-6 from positive is valid at --tol 1e-5 and invalid at 1e-7, for every command."""
    state = str(tmp_path / "state.json")
    dump(doc, state)
    good = write_state(tmp_path, "good.json", validate_density(np.eye(2) / 2))
    for tol, expected in (("1e-5", 0), ("1e-7", 2)):
        assert main(["--tol", tol, "validate", state]) == expected
        assert main(["--tol", tol, "kraus", state, good]) == expected
        assert main(["--tol", tol, "kraus", good, state, "--method", "measure-prepare"]) == expected
    capsys.readouterr()


def test_loose_tol_reaches_the_joint_state(tmp_path, capsys):
    """A joint state accepted at --tol is evolved and swept without a traceback."""
    joint = np.diag([0.5 + 1e-6, -1e-6, 0.0, 0.5]).astype(complex)
    joint[0, 3] = joint[3, 0] = 1e-6
    path = str(tmp_path / "scenario.json")
    dump(_custom(kron(pauli_x, pauli_z), rho=joint), path)
    sweep = ["sweep", path, "--t-start", "0", "--t-end", "1", "--steps", "3"]
    assert main(["--tol", "1e-5", "evolve", path, "--t", "0.7"]) == 0
    assert main(["--tol", "1e-5", *sweep]) == 0
    assert main(["evolve", path, "--t", "0.7"]) == 2
    capsys.readouterr()


def _tol_zero_scenario(tmp_path, rng):
    """A custom scenario whose joint state is exact, so it passes --tol 0."""
    path = str(tmp_path / "scenario.json")
    dump(_custom(random_hermitian(rng, 4), rho=np.diag([0.125, 0.25, 0.25, 0.375])), path)
    return path


def test_computed_state_missing_its_bound_exits_1(tmp_path, rng, monkeypatch, capsys):
    """Phases of the propagator off by a factor 1 + 1e-6 give an evolved joint state whose
    trace misses its bound: exit 1 with one stderr line, no traceback and no output."""
    path = _tol_zero_scenario(tmp_path, rng)

    def perturbed(system, t):
        vectors, phases = eigenphases(system, t)
        return vectors, (1 + 1e-6) * phases

    monkeypatch.setattr("krauslab.dynamics.eigenphases", perturbed)
    for cmd, *options in (["evolve", "--t", "0.7"], ["sweep", "--t-start", "0", "--t-end", "1", "--steps", "3"]):
        code, out, err = _call(["--tol", "0", cmd, path, *options], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"{cmd}: not a valid density matrix: unit_trace residual ")
        assert err.endswith(f" > tol {bound(0, 4):.3e}\n")
        assert err.count("\n") == 1


def _shift_sweep_column(monkeypatch, col, by):
    """Make ``cmd_sweep`` read column ``col`` raised by ``by``: a residual that really misses."""
    columns = cli.sweep_columns

    def shifted(*args):
        cols = columns(*args)
        return {**cols, col: cols[col] + by}

    monkeypatch.setattr(cli, "sweep_columns", shifted)


def _shift_reconstruction_residual(monkeypatch, by):
    """Make ``cmd_kraus`` and ``cmd_verify`` read the reconstruction residual raised by ``by``:
    a residual that really misses."""
    verify = cli.verify_channel

    def shifted(*args):
        report = verify(*args)
        return dataclasses.replace(report, reconstruction_residual=report.reconstruction_residual + by)

    monkeypatch.setattr(cli, "verify_channel", shifted)


def _shift_decomposition_residual(monkeypatch, by):
    """Make ``cmd_evolve`` read the decomposition residual raised by ``by``: a residual that really misses."""
    residual = ReducedDynamics.decomposition_residual
    monkeypatch.setattr(ReducedDynamics, "decomposition_residual", lambda rd: residual(rd) + by)


def test_tol_zero_is_not_failed_by_rounding(tmp_path, rng, monkeypatch, capsys):
    """At --tol 0 the evolved and reduced states pass their bounds despite
    rounding, and every residual passes bound(0, 4), the rounding of the
    joint dimension: each command writes its full output and exits 0.  The
    same residuals raised past that bound are real misses: exit 1, named."""
    path = _tol_zero_scenario(tmp_path, rng)
    evolve = ["--tol", "0", "evolve", path, "--t", "0.7"]
    sweep = ["--tol", "0", "sweep", path, "--t-start", "0", "--t-end", "1", "--steps", "3"]
    code, out, err = _call(evolve, capsys)
    doc = json.loads(out)
    assert list(doc) == ["t", "rho_i_t", "delta_rho", "rho_cor_0", "decomposition_residual"]
    assert doc["decomposition_residual"] <= bound(0, 4)
    assert (code, err) == (0, "")
    code, out, err = _call(sweep, capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert not [col for col in RESIDUAL_COLUMNS if any(float(row[col]) > bound(0, 4) for row in rows)]
    assert (code, err) == (0, "")

    _shift_decomposition_residual(monkeypatch, 2 * bound(0, 4))
    code, out, err = _call(evolve, capsys)
    residual = json.loads(out)["decomposition_residual"]
    assert (code, err) == (1, f"evolve: decomposition_residual {residual:.3e} > tol 0.000e+00\n")
    _shift_sweep_column(monkeypatch, "reconstruction_residual", 2 * bound(0, 4))
    code, out, err = _call(sweep, capsys)
    assert len(list(csv.DictReader(io.StringIO(out)))) == 3
    assert code == 1
    assert [line.split()[1] for line in err.splitlines()] == ["reconstruction_residual"]


#: The checks of a report document, each with the field it reads and its sign:
#: the positivity residual is the minimum eigenvalue negated.
REPORT_CHECKS = {
    "completeness_residual": ("completeness_residual", 1),
    "reconstruction_residual": ("reconstruction_residual", 1),
    "output_trace_residual": ("output_trace_residual", 1),
    "output_positivity": ("output_min_eigenvalue", -1),
}


def _near_pole_state(tmp_path):
    """A state with Bloch vector (7e-11, 7e-11, 0.5): hypot(x, y) is just under
    EPS, so a threshold at EPS on the distance from the z axis would take
    phi = 0 there, and a pair built with it misses the state by 3.8e-11."""
    x = y = 7e-11
    rho = validate_density(np.array([[0.75, (x - 1j * y) / 2], [(x + 1j * y) / 2, 0.25]]))
    return write_state(tmp_path, "near_pole.json", rho)


@pytest.mark.parametrize(
    "cmd,tol,code",
    [
        ("kraus", "1e-9", 0),
        ("kraus", "1e-18", 0),
        ("kraus-near-pole", "1e-12", 0),
        ("kraus-shifted", "1e-9", 1),
        ("verify", "1e-9", 0),
        ("verify", "1e-18", 0),
        ("verify-other-target", "1e-9", 1),
        ("evolve", "1e-9", 0),
        ("evolve", "1e-18", 0),
        ("evolve-shifted", "1e-9", 1),
    ],
)
def test_exit_1_names_each_failing_check(cmd, tol, code, tmp_path, cnot_scenario, monkeypatch, capsys):
    """Each residual is judged at --tol + bound(0, d), so rounding passes even
    at --tol 1e-18.  Exit 1 writes one stderr line per check that really
    misses, in the format of sweep, with the residual read from the output;
    exit 0 writes nothing to stderr."""
    rho0 = validate_density(np.array([[0.5, 0.25], [0.25, 0.5]]))  # exact entries: valid at any tol
    rhot = validate_density(np.array([[0.75, 0.25j], [-0.25j, 0.25]]))
    p0, pt = write_state(tmp_path, "rho0.json", rho0), write_state(tmp_path, "rhot.json", rhot)
    po = write_state(tmp_path, "other.json", validate_density(np.eye(2) / 2))
    kp = str(tmp_path / "k.json")
    dump(kraus_to_json(general_qubit_kraus(rho0, rhot)), kp)
    argv = {
        "kraus": ["--out", str(tmp_path / "out.json"), "kraus", p0, pt],
        "kraus-near-pole": ["--out", str(tmp_path / "out.json"), "kraus", p0, _near_pole_state(tmp_path)],
        "kraus-shifted": ["--out", str(tmp_path / "out.json"), "kraus", p0, pt],
        "verify": ["verify", kp, p0, pt],
        "verify-other-target": ["verify", kp, p0, po],
        "evolve": ["evolve", cnot_scenario, "--t", "0.7"],
        "evolve-shifted": ["evolve", cnot_scenario, "--t", "0.7"],
    }[cmd]
    if cmd == "evolve-shifted":
        _shift_decomposition_residual(monkeypatch, 2e-9)
    if cmd == "kraus-shifted":
        _shift_reconstruction_residual(monkeypatch, 2e-9)
    exit_code, out, err = _call(["--tol", tol, *argv], capsys)
    doc = json.loads(out)
    command = cmd.split("-")[0]
    if command == "evolve":
        residuals, d = {"decomposition_residual": doc["decomposition_residual"]}, 4  # the CNOT joint dimension
    else:
        residuals, d = {name: sign * doc[field] for name, (field, sign) in REPORT_CHECKS.items()}, 2
    failed = {name: res for name, res in residuals.items() if not res <= float(tol) + bound(0, d)}
    assert exit_code == code == (1 if failed else 0)
    assert err.splitlines() == [f"{command}: {check} {res:.3e} > tol {float(tol):.3e}" for check, res in failed.items()]


@pytest.mark.parametrize(
    "cmd,entry,code,names",
    [
        ("validate", 1.7e308, 2, ['"unit_trace": null']),
        ("verify", 1e200, 1, [f"verify: {check} inf > tol" for check in REPORT_CHECKS]),
        # the output is finite (reconstruction 1.5e308), its Hermitian part overflows
        ("verify", 1e154, 1, [f"verify: {check} {res} > tol" for check, res in
                              zip(REPORT_CHECKS, ["inf", "1.500e+308", "inf", "inf"])]),
        ("factor", 1e200, 2, ["error: input is not unitary: residual inf"]),
        ("remix", 1e200, 2, ["error: remix matrix is not unitary: residual inf"]),
    ],
    ids=["validate-1.7e308", "verify-1e200", "verify-1e154", "factor-1e200", "remix-1e200"],
)
def test_overflow_of_finite_input_is_named_without_warnings(cmd, entry, code, names, tmp_path, capsys):
    """Entries near the float maximum decode, and every residual they overflow is judged: the exit code
    names the verdict, stdout is strict JSON, no numpy warning is written, and each failing check or
    input is named."""
    big = matrix_to_json(np.full((2, 2), entry))
    docs = {
        "state.json": {"matrix": matrix_to_json(np.array([[1e308, entry], [entry, 1e308]]))},
        "rho0.json": {"matrix": matrix_to_json(np.array([[0.75, 0.25], [0.25, 0.25]]))},
        "big_set.json": {"d_in": 2, "d_out": 2, "ops": [big]},
        "one_set.json": {"d_in": 2, "d_out": 2, "ops": [matrix_to_json(np.eye(2))]},
        "v.json": big,
        "u.json": matrix_to_json(np.full((4, 4), entry)),
    }
    for name, doc in docs.items():
        dump(doc, str(tmp_path / name))
    argv = {
        "validate": ["validate", "state.json"],
        "verify": ["verify", "big_set.json", "rho0.json", "rho0.json"],
        "factor": ["factor", "u.json", "--dims", "2", "2"],
        "remix": ["remix", "one_set.json", "v.json"],
    }[cmd]
    argv = [str(tmp_path / arg) if arg in docs else arg for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code, out, err = _call(argv, capsys)
    assert exit_code == code
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err
    if out:
        strict_loads(out)
    assert all(name in out + err for name in names), out + err


@pytest.mark.parametrize("rho", [np.diag([0.25, 0.75]), np.array([[0.75, 0.25], [0.25, 0.25]])], ids=["diag", "full"])
def test_overflow_of_both_signs_reads_inf_not_nan(rho, tmp_path, capsys):
    """Products that overflow with both signs sum to inf - inf, but each residual they overflow reads inf,
    never NaN: exit 1, null in the report and each check named on stderr."""
    ops = [matrix_to_json(np.array([[1e200, -1e200], [1e200, 1e200]]))]
    dump({"d_in": 2, "d_out": 2, "ops": ops}, str(tmp_path / "k.json"))
    state = write_state(tmp_path, "rho.json", validate_density(rho))
    code, out, err = _call(["verify", str(tmp_path / "k.json"), state, state], capsys)
    assert code == 1
    assert strict_loads(out) == dict.fromkeys(field for field, _ in REPORT_CHECKS.values())
    assert err.splitlines() == [f"verify: {check} inf > tol {EPS:.3e}" for check in REPORT_CHECKS]


@pytest.mark.parametrize(
    "argv",
    [["evolve", "--t", "1e10"], ["sweep", "--t-start", "0", "--t-end", "1e300", "--steps", "3"]],
    ids=["evolve", "sweep"],
)
def test_overflowing_phase_of_finite_input_exits_2(argv, tmp_path, capsys):
    """H = 1e300 I at a time whose product with it overflows: no phase exists, so no NaN state is judged."""
    path = str(tmp_path / "scenario.json")
    dump(_custom(1e300 * np.eye(4)), path)
    code, out, err = _call([argv[0], path, *argv[1:]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: t * eigenvalue of H is not finite: |t| up to ")
    assert "nan" not in err


@pytest.mark.parametrize("options", [["--tol", "-1"], ["--tol=-1e-12"]], ids=["-1", "-1e-12"])
def test_negative_tol_exits_2(tmp_path, capsys, options):
    """A negative tolerance is a parse error like a non-finite one."""
    state = write_state(tmp_path, "mixed.json", validate_density(np.eye(2) / 2))
    code, out, err = _call([*options, "validate", state], capsys)
    assert code == 2
    assert out == ""
    assert "argument --tol: invalid tolerance value:" in err


def test_sweep_where_r_t_is_zero_on_every_row(tmp_path, capsys):
    """At r0 = 0 over t in {0, 1e-200}, sin(t)**2 underflows and r_t = 0 on both
    rows: the reduced state is maximally mixed, and the pair still reaches it
    to rounding.  At t = pi, r_t = sin(pi) = 1.2e-16, and that row passes at
    --tol 0 as well."""
    path = str(tmp_path / "r0.json")
    dump({"scenario": "cnot", "r0": 0}, path)
    kraus_cols = ("completeness_residual", "reconstruction_residual")
    with pytest.warns(UserWarning, match="endpoint"):
        code = main(["sweep", path, "--t-start", "0", "--t-end", "1e-200", "--steps", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(row["r_t"]) for row in rows] == [0.0, 0.0]
    assert all(float(row[col]) <= bound(0, 4) for row in rows for col in kraus_cols)
    with pytest.warns(UserWarning, match="endpoint"):
        code = main(["--tol", "0", "sweep", path, "--t-start", "0", "--t-end", repr(math.pi), "--steps", "2"])
    assert code == 0
    first, last = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert float(first["r_t"]) == 0.0 < float(last["r_t"]) < 1e-15
    assert all(float(row[col]) <= bound(0, 4) for row in (first, last) for col in kraus_cols)


def test_sweep_holds_for_r0_just_outside_zero_to_one(tmp_path, capsys):
    """A scenario accepts r0 within EPS of [0, 1]; at r0 = -5e-11 the pair is
    defined on the whole grid and every Kraus residual is rounding."""
    path = str(tmp_path / "r0.json")
    dump({"scenario": "cnot", "r0": -5e-11}, path)
    with pytest.warns(UserWarning, match="endpoint"):
        code = main(["sweep", path, "--t-start", "0", "--t-end", repr(math.pi), "--steps", "33"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 33
    cells = [float(row[col]) for row in rows for col in ("completeness_residual", "reconstruction_residual")]
    assert all(cell <= bound(EPS, 4) for cell in cells)


@pytest.mark.parametrize(
    "command",
    [["sweep", "--t-start", "0", "--t-end", "3", "--steps", "9"], ["evolve", "--t", "1.3"]],
    ids=["sweep", "evolve"],
)
@pytest.mark.parametrize("r0, code", [(1 + EPS, 0), (1 + 2 * EPS, 2), (-2 * EPS, 2)], ids=["1+eps", "1+2eps", "-2eps"])
def test_r0_is_judged_at_eps_plus_the_rounding_of_a_direct_distance(tmp_path, capsys, command, r0, code):
    """1 + EPS rounds to 1 + 1.0000000827e-10, within EPS + bound(0, 1) of 1 like -EPS of 0; twice EPS
    outside [0, 1] at either end is rejected."""
    path = str(tmp_path / "r0.json")
    dump({"scenario": "cnot", "r0": r0}, path)
    with pytest.warns(UserWarning, match="endpoint") if code == 0 else contextlib.nullcontext():
        assert main([command[0], path, *command[1:]]) == code
    if code == 2:
        assert "r0 outside [0, 1]" in capsys.readouterr().err


def test_sweep_format_json(cnot_scenario, capsys):
    argv = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "2", "--steps", "7", "--format", "json"]
    assert main(["--tol", "1e-9", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7
    assert all(list(row) == list(SWEEP_COLUMNS) for row in rows)


def test_sweep_csv_is_csv_writer_output(tmp_path, rng, capsys):
    """stdout and --out hold the bytes of csv.writer with f"{value:.12g}" cells,
    here on a custom scenario, whose trace_distance_analytic_vs_numeric column is NaN."""
    path = str(tmp_path / "custom.json")
    dump(_custom(random_hermitian(rng, 4), rho=random_density(rng, d=4).mat), path)
    h, joint, sc = scenario_from_json(load(path))
    cols = sweep_columns(h, joint, np.linspace(-1, 1, 5), sc)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([f"{value:.12g}" for value in row] for row in zip(*(cols[c].tolist() for c in SWEEP_COLUMNS)))
    assert "nan" in expected.getvalue()
    out = str(tmp_path / "sweep.csv")
    argv = ["sweep", path, "--t-start", "-1", "--t-end", "1", "--steps", "5"]
    assert main(argv) == 0
    assert main(["--out", out, *argv]) == 0
    assert capsys.readouterr().out == expected.getvalue()
    with open(out, "rb") as fh:
        assert fh.read() == expected.getvalue().encode()


OUT_WRITERS = {
    "kraus": ["kraus", "{state}", "{state}"],
    "evolve": ["evolve", "{scenario}", "--t", "1"],
    "sweep-csv": ["sweep", "{scenario}", "--t-start", "0", "--t-end", "1", "--steps", "3"],
    "sweep-json": ["sweep", "{scenario}", "--t-start", "0", "--t-end", "1", "--steps", "3", "--format", "json"],
    "remix": ["remix", "{kraus}", "{unitary}"],
    "factor": ["factor", "{product}", "--dims", "2", "2"],
}


@pytest.fixture
def out_writer_paths(tmp_path, cnot_scenario):
    """The input files that fill the {placeholders} of OUT_WRITERS."""
    mixed = validate_density(np.eye(2) / 2)
    paths = {
        "state": write_state(tmp_path, "mixed.json", mixed),
        "scenario": cnot_scenario,
        "kraus": str(tmp_path / "k.json"),
        "unitary": str(tmp_path / "u.json"),
        "product": str(tmp_path / "product.json"),
    }
    dump(kraus_to_json(general_qubit_kraus(mixed, mixed)), paths["kraus"])
    dump(matrix_to_json(np.eye(2)), paths["unitary"])
    dump(matrix_to_json(kron(pauli_x, pauli_z)), paths["product"])
    return paths


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", OUT_WRITERS.values(), ids=OUT_WRITERS)
def test_unwritable_out_exits_2(tmp_path, out_writer_paths, argv, target, capsys):
    """An --out that cannot be opened for writing is invalid input: exit 2 and one error line."""
    if target == "directory":
        out, code = str(tmp_path), errno.EISDIR
    else:
        out, code = str(tmp_path / "no-such-dir" / "out.json"), errno.ENOENT
    assert main(["--out", out, *[a.format(**out_writer_paths) for a in argv]]) == 2
    assert capsys.readouterr().err == f"error: {out}: {os.strerror(code)}\n"


@pytest.mark.parametrize("argv", OUT_WRITERS.values(), ids=OUT_WRITERS)
def test_out_writes_the_bytes_it_prints(tmp_path, out_writer_paths, argv, capsys):
    """--out moves the primary document from stdout to the file, byte for byte, as bytes on every platform:
    the sweep CSV's lines end in \\r\\n and every JSON document's in \\n."""
    argv = [a.format(**out_writer_paths) for a in argv]
    out = tmp_path / "out.txt"
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert main(["--out", str(out), *argv]) == 0
    written = out.read_bytes()
    assert written + capsys.readouterr().out.encode() == printed
    lines = written.split(b"\r\n" if argv[0] == "sweep" and "json" not in argv else b"\n")
    assert len(lines) > 3 and lines[-1] == b"" and not any(b"\r" in line or b"\n" in line for line in lines)


#: A valid state file as the CLI writes JSON, lines ended by \n.
_STATE_TEXT = dumps({"matrix": matrix_to_json(np.eye(2) / 2)}) + "\n"

#: Files read as UTF-8 bytes: name -> (the file's bytes, exit code of validate, its stderr after "error: <path>: ").
INPUT_FILES = {
    "utf-8-bom": (b"\xef\xbb\xbf" + _STATE_TEXT.encode(), 2,
                  "JSON parse error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf-16": (_STATE_TEXT.encode("utf-16"), 2, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "crlf": (_STATE_TEXT.replace("\n", "\r\n").encode(), 0, None),
    # the char offset counts the four \r bytes before the error: the \n-ended file reads (char 49)
    "malformed-crlf": (_STATE_TEXT.replace('"cols": 2,', '"cols": 2').replace("\n", "\r\n").encode(), 2,
                       "JSON parse error: Expecting ',' delimiter: line 5 column 5 (char 53)"),
    "byte-0xff": (_STATE_TEXT.encode()[:43] + b"\xff" + _STATE_TEXT.encode()[44:], 2,
                  "'utf-8' codec can't decode byte 0xff in position 43: invalid start byte"),
    "directory": (None, 2, os.strerror(errno.EISDIR)),
    "missing": (None, 2, os.strerror(errno.ENOENT)),
}


@pytest.mark.parametrize("name", INPUT_FILES)
def test_input_file_is_read_as_utf8_bytes(name, tmp_path, capsys):
    """A state file is UTF-8 bytes, its line ends as they are: a BOM, another encoding or a byte that is not
    UTF-8 exits 2 with one line naming the file, and so does a path that is not a readable file.  An unwritable
    --out is the matching case for output, in test_unwritable_out_exits_2."""
    data, code, message = INPUT_FILES[name]
    path = tmp_path / "state.json"
    if name == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    assert main(["validate", str(path)]) == code
    captured = capsys.readouterr()
    if message is None:
        assert (captured.out, captured.err) == ('{"valid": true, "dim": 2}\n', "")
    else:
        assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "1", "validate", "x"],
        ["--format", "json", "sweep", "x", "--t-start", "0", "--t-end", "1", "--steps", "2"],
        ["--tol", "nan", "validate", "x"],
        ["evolve", "x", "--t", "inf"],
    ],
)
def test_parser_rejects(argv, capsys):
    from krauslab.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def _call(argv, capsys, fresh=False):
    """(exit code, stdout, stderr) of one in-process call; ``fresh`` builds a new parser for it."""
    if fresh:
        build_parser.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parse_error_leaves_the_parser_as_fresh(cnot_scenario, tmp_path, capsys):
    """A call that argparse rejects (exit 2) changes nothing for the next call."""
    state = str(tmp_path / "loose.json")
    dump({"matrix": matrix_to_json(np.diag([1 + 1e-4, -1e-4]))}, state)
    bad = [
        ["evolve", cnot_scenario, "--t", "inf"],
        ["--tol", "1e-3", "sweep", cnot_scenario, "--t-start", "0", "--steps", "3"],
        ["kraus", state, state, "--method", "closed-form", "--bogus"],
    ]
    good = ["validate", state]
    for argv in bad:
        for fresh in (False, True):
            assert _call(argv, capsys, fresh)[0] == 2
            assert _call(good, capsys) == _call(good, capsys, fresh=True)


def test_no_subcommand_default_leaks_between_calls(cnot_scenario, tmp_path, rng, monkeypatch, capsys):
    """Each call of an alternating sequence prints what it prints on a freshly built parser.
    Every ``kraus`` reconstruction residual is raised by 1e-11, a miss at --tol 1e-12 only."""
    _shift_reconstruction_residual(monkeypatch, 1e-11)
    a = write_state(tmp_path, "a.json", random_density(rng))
    b = write_state(tmp_path, "b.json", random_density(rng))
    grid = ["--t-start", "0", "--t-end", "1", "--steps", "3"]
    sequence = [
        ["kraus", a, b, "--method", "closed-form"],
        ["--tol", "1e-9", "sweep", cnot_scenario, *grid, "--format", "json"],
        ["validate", a],
        ["evolve", cnot_scenario, "--t", "0.7"],
        ["kraus", a, b],
        ["sweep", cnot_scenario, *grid],
        ["--tol", "1e-18", "evolve", cnot_scenario, "--t", "0.7"],
        ["--tol", "1e-12", "kraus", a, b],
        ["sweep", "--help"],
        ["--help"],
    ]
    reused = [_call(argv, capsys) for argv in sequence * 2]
    fresh = [_call(argv, capsys, fresh=True) for argv in sequence * 2]
    assert reused == fresh
    assert [code for code, _, _ in reused[: len(sequence)]] == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
