import csv
import io
import json

import numpy as np
import pytest

from krauslab import general_qubit_kraus, kron, pauli_x, pauli_z, validate_density
from krauslab.cli import CSV_HEADER, main
from krauslab.linalg import norm_max
from krauslab.serialize import dump, kraus_to_json, matrix_from_json, matrix_to_json, state_to_json

from conftest import random_density


@pytest.fixture
def cnot_scenario(tmp_path):
    path = str(tmp_path / "cnot.json")
    dump({"scenario": "cnot", "r0": 0.5}, path)
    return path


def write_state(tmp_path, name, rho):
    path = str(tmp_path / name)
    dump(state_to_json(rho), path)
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

    def test_measure_prepare_method(self, tmp_path, rng):
        p0 = write_state(tmp_path, "a.json", random_density(rng, d=3))
        pt = write_state(tmp_path, "b.json", random_density(rng, d=3))
        assert main(["--tol", "1e-9", "kraus", p0, pt, "--method", "measure-prepare"]) == 0


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


class TestSweep:
    def test_cnot_grid(self, cnot_scenario, capsys):
        code = main(
            ["--tol", "1e-9", "sweep", cnot_scenario, "--t-start", "0", "--t-end", str(np.pi), "--steps", "65"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 66
        idx = {name: i for i, name in enumerate(CSV_HEADER)}
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

    def test_determinism(self, cnot_scenario, capsys):
        args = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "2", "--steps", "10"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


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
        assert json.loads(capsys.readouterr().out)["factorable"] is False


def test_tol_env_override(tmp_path, rng, monkeypatch, capsys):
    monkeypatch.setenv("KRAUSLAB_TOL", "1e-3")
    from krauslab.cli import build_parser

    args = build_parser().parse_args(["validate", "x"])
    assert args.tol == 1e-3


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


BAD_STATES = {
    **{f"nan-{i}{j}": _nan_state(i, j) for i in range(2) for j in range(2)},
    "data-not-pairs": {"matrix": {"rows": 2, "cols": 2, "data": [0.5, 0, 0, 0.5]}},
    "bloch-nan": {"bloch": {"r": 0.5, "theta": float("nan"), "phi": 0.0}},
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
    "cnot-r0-nan": {"scenario": "cnot", "r0": float("nan")},
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


def test_sweep_format_json(cnot_scenario, capsys):
    argv = ["sweep", cnot_scenario, "--t-start", "0", "--t-end", "2", "--steps", "7", "--format", "json"]
    assert main(["--tol", "1e-9", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7
    assert all(list(row) == CSV_HEADER for row in rows)


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
