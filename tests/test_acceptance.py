"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s to see them)."""

import csv
import io
import json

import numpy as np

import krauslab as kl
from krauslab.cli import main as cli_main
from krauslab.dynamics import SWEEP_COLUMNS
from krauslab.kraus import apply_kraus_raw
from krauslab.linalg import dag, kron, norm_max, partial_trace
from krauslab.serialize import matrix_to_json

from conftest import dump, random_density, random_hermitian, random_unitary


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_cnot_unitary_closed_form():
    h = kl.cnot_hamiltonian()
    worst = max(
        norm_max(kl.expm_hermitian_generator(h, t) - kl.cnot_unitary(t))
        for t in np.linspace(0, 2 * np.pi, 30)
    )
    report("1 CNOT unitary closed form <= 1e-9", worst <= 1e-9)


def test_02_cnot_reduced_dynamics_closed_forms():
    h = kl.cnot_hamiltonian()
    worst = 0.0
    for r0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        sc = kl.CnotScenario(r0)
        joint = sc.initial_joint()
        cor = kl.correlation_operator(joint, joint.reduced_system(), joint.reduced_environment())
        worst = max(worst, norm_max(cor - 0.25 * (1 - r0**2) * kron(kl.pauli_z, kl.pauli_z)))
        worst = max(
            worst,
            norm_max(joint.reduced_system().mat - sc.initial_reduced().mat),
        )
        for t in np.linspace(0, 2 * np.pi, 50):
            numeric = kl.evolve_joint(h, joint, t).reduced_system().mat
            worst = max(worst, norm_max(numeric - kl.cnot_analytic_rho(sc, t).mat))
            worst = max(
                worst,
                norm_max(kl.reduced_dynamics(h, joint, t).inhom - kl.cnot_analytic_delta_rho(sc, t)),
            )
    report("2 reduced state / correlation / inhomogeneous closed forms <= 1e-9", worst <= 1e-9)


def test_03_analytic_kraus_pair_despite_nonzero_delta():
    worst = 0.0
    for r0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        sc = kl.CnotScenario(r0)
        rho0 = sc.initial_reduced()
        for t in np.linspace(0, 2 * np.pi, 50):
            k = kl.cnot_analytic_kraus(sc, t)
            rep = kl.verify_channel(k, rho0, kl.cnot_analytic_rho(sc, t))
            worst = max(worst, rep.completeness_residual, rep.reconstruction_residual)
    sc = kl.CnotScenario(0.5)
    delta = kl.cnot_analytic_delta_rho(sc, np.pi / 2)
    delta_ok = norm_max(delta) > 0.01 and norm_max(delta - np.diag([0.375, -0.375])) <= 1e-12
    report("3 analytic Kraus pair valid while delta-rho nonzero", worst <= 1e-9 and delta_ok)


def test_04_universal_qubit_construction():
    rng = np.random.default_rng(4)
    worst_comp = worst_rec = 0.0
    worst_choi = 0.0
    pool = [kl.validate_density(np.eye(2) / 2)]
    for i in range(1000):
        if i < len(pool):
            rho0 = pool[i]
        else:
            rho0 = random_density(rng, rank=int(rng.integers(1, 3)))
        rhot = random_density(rng, rank=int(rng.integers(1, 3)))
        k = kl.general_qubit_kraus(rho0, rhot)
        rep = kl.verify_channel(k, rho0, rhot)
        worst_comp = max(worst_comp, rep.completeness_residual)
        worst_rec = max(worst_rec, rep.reconstruction_residual)
        worst_choi = min(worst_choi, rep.choi_min_eigenvalue)
    ok = worst_comp <= 1e-9 and worst_rec <= 1e-9 and worst_choi >= -1e-9
    report("4 universal construction on 1000 random pairs", ok)


def test_05_closed_form_gauge_equality():
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 200:
        rho0, rhot = random_density(rng), random_density(rng)
        (r0, theta0, _), (r, theta, _) = kl.bloch_angles(rho0.mat), kl.bloch_angles(rhot.mat)
        if min(r0, r) < 1e-3 or min(np.sin(theta0), np.sin(theta)) < 1e-3:
            continue
        count += 1
        kg = kl.general_qubit_kraus(rho0, rhot)
        kc = kl.closed_form_qubit_kraus(rho0, rhot)
        worst = max(worst, max(norm_max(a - b) for a, b in zip(kg.ops, kc.ops)))
    report("5 closed form equals pipeline entrywise <= 1e-8", worst <= 1e-8)


def test_06_factorable_consistency():
    rng = np.random.default_rng(6)
    worst = 0.0
    worst_delta = 0.0
    for _ in range(100):
        u = random_unitary(rng, 4)
        rho_i, rho_e = random_density(rng), random_density(rng)
        k = kl.factorable_kraus(u, rho_e, d_i=2)
        out = apply_kraus_raw(k, rho_i.mat)
        ref = partial_trace(u @ kron(rho_i.mat, rho_e.mat) @ dag(u), (2, 2), keep=0)
        worst = max(worst, norm_max(out - ref), k.completeness_residual())
        s = kl.CompositeState(mat=kl.validate_density(kron(rho_i.mat, rho_e.mat)), d_i=2, d_e=2)
        h = random_hermitian(rng, 4)
        worst_delta = max(worst_delta, norm_max(kl.reduced_dynamics(h, s, float(rng.uniform(0, 3))).inhom))
    report("6 factorable Kraus matches partial trace, delta zero", worst <= 1e-9 and worst_delta <= 1e-9)


def test_07_remix_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_comp = 0.0
    for _ in range(100):
        k = kl.general_qubit_kraus(random_density(rng), random_density(rng))
        n = int(rng.integers(2, 5))
        v = random_unitary(rng, n)
        remixed = kl.unitary_remix(k, v)
        sigma = random_density(rng)
        worst = max(worst, norm_max(apply_kraus_raw(remixed, sigma.mat) - apply_kraus_raw(k, sigma.mat)))
        worst_comp = max(worst_comp, remixed.completeness_residual())
    report("7 remix leaves channel action unchanged", worst <= 1e-9 and worst_comp <= 1e-9)


def test_08_qudit_measure_prepare():
    rng = np.random.default_rng(8)
    worst_comp = worst_out = 0.0
    for d in (2, 3, 4):
        for _ in range(50):
            rho0 = random_density(rng, d=d, rank=int(rng.integers(1, d + 1)))
            rhot = random_density(rng, d=d, rank=int(rng.integers(1, d + 1)))
            k = kl.measure_prepare_kraus(rho0, rhot)
            worst_comp = max(worst_comp, k.completeness_residual())
            worst_out = max(worst_out, norm_max(apply_kraus_raw(k, rho0.mat) - rhot.mat))
            sigma = random_density(rng, d=d)
            worst_out = max(worst_out, norm_max(apply_kraus_raw(k, sigma.mat) - rhot.mat))
    report("8 qudit constant channel", worst_comp <= 1e-11 and worst_out <= 1e-10)


def test_09_decomposition_identity():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        s = kl.CompositeState(mat=random_density(rng, d=4), d_i=2, d_e=2)
        h = random_hermitian(rng, 4)
        t = float(rng.uniform(-3, 3))
        lhs = kl.evolve_joint(h, s, t).reduced_system().mat
        u = kl.expm_hermitian_generator(h, t)
        k = kl.factorable_kraus(u, s.reduced_environment(), d_i=2)
        rhs = apply_kraus_raw(k, s.reduced_system().mat) + kl.reduced_dynamics(h, s, t).inhom
        worst = max(worst, norm_max(lhs - rhs))
    report("9 reduced dynamics = factorable part + inhomogeneous term", worst <= 1e-9)


def test_10_cli_contract(tmp_path, capsys):
    scenario = str(tmp_path / "cnot.json")
    dump({"scenario": "cnot", "r0": 0.5}, scenario)
    code = cli_main(
        ["--tol", "1e-9", "sweep", scenario, "--t-start", "0", "--t-end", str(np.pi), "--steps", "65"]
    )
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    idx = {name: i for i, name in enumerate(SWEEP_COLUMNS)}
    residual_ok = all(
        float(row[idx[c]]) <= 1e-9
        for row in rows[1:]
        for c in ("completeness_residual", "reconstruction_residual", "trace_distance_analytic_vs_numeric")
    )
    sweep_ok = code == 0 and rows[0] == list(SWEEP_COLUMNS) and len(rows) == 66 and residual_ok

    bad = str(tmp_path / "bad.json")
    good = str(tmp_path / "good.json")
    dump({"matrix": matrix_to_json(np.diag([1.5, -0.5]))}, bad)
    dump({"matrix": matrix_to_json(np.diag([1.0, 0.0]))}, good)
    kraus_code = cli_main(["kraus", bad, good])
    capsys.readouterr()
    with capsys.disabled():
        report("10 CLI sweep exits 0, non-positive input exits 2", sweep_ok and kraus_code == 2)
