"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import known_defect_probe, measure  # noqa: E402


def _snapshot():
    import krauslab.cli  # noqa: F401

    mods = [m for n, m in sys.modules.items() if n == "krauslab" or n.startswith("krauslab.")]
    return {(id(m), k): v for m in mods + [np.linalg] for k, v in vars(m).items()}


@pytest.mark.parametrize("generator", [inputs.sweep_inputs, inputs.cli_inputs])
def test_same_seed_gives_identical_files(generator, tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        workloads.CliCalls.build(7, str(tmp_path / name), generator, warmup_ops=0)
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for n in names:
        assert (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
    assert generator(7)[0] == generator(7)[0]
    assert generator(7) != generator(8)


def test_same_seed_gives_identical_pairs():
    def raw(seed):
        return b"".join(a.tobytes() + b.tobytes() for a, b in inputs.pair_inputs(seed, n=300))

    assert raw(3) == raw(3)
    assert raw(3) != raw(4)


def test_cli_inputs_hold_every_invalid_kind_and_expected_exits():
    ops, files = inputs.cli_inputs(1)
    assert len(ops) == 168
    kinds = {op.kind for op in ops}
    assert {"invalid-nonpositive", "invalid-nonhermitian", "invalid-malformed",
            "invalid-nan-offdiag", "invalid-nan-diag"} <= kinds
    assert all(op.expect == (2 if op.kind.startswith("invalid-") else 0) for op in ops)
    for i, op in enumerate(ops):
        if op.argv[0] == "verify":
            assert ops[i - 1].out == op.argv[1]


def test_self_times_on_a_synthetic_tree():
    rec = spans.SpanRecorder(1e-10)
    root = rec.record("root", 0.0, 10.0)
    a = rec.record("a", 1.0, 4.0, root)
    rec.record("b", 3.0, 6.0, root)  # overlaps a: the union counts once
    rec.record("c", 8.0, 12.0, root)  # runs past its parent: clipped at 10
    rec.record("a1", 2.0, 3.0, a)
    assert spans.self_times(rec.start, rec.end, rec.parent).tolist() == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_speed_factors_follow_the_local_reference():
    probe = calibrate.SpeedProbe()
    probe.at = [1.0, 2.0, 3.0, 4.0]
    probe.took = [calibrate.NOMINAL_S, calibrate.NOMINAL_S, 3 * calibrate.NOMINAL_S,
                  3 * calibrate.NOMINAL_S]
    # Before the first sample and after the last, only one sample is near.
    assert probe.factors([0.5, 1.5, 2.0, 2.5, 3.5, 5.0]) == [1.0, 1.0, 0.5, 0.5, 1 / 3, 1 / 3]


def _run_pair(name, tmp_path, monkeypatch, n_ops):
    """The same ops untraced and traced; returns (untraced, traced, layer metrics)."""
    monkeypatch.chdir(tmp_path)
    wl = workloads.build(name, 11, str(tmp_path))
    plain = measure(wl, 0.0, min_ops=n_ops, keep_details=True)
    rec = spans.SpanRecorder(workloads.TOL)
    with spans.tracing(rec):
        traced = measure(wl, 0.0, min_ops=n_ops, recorder=rec, keep_details=True)
    return plain, traced, spans.layer_metrics(rec, traced.items, traced.wall)


@pytest.mark.parametrize("name,n_ops", [("pairs", 20), ("sweep", 3), ("cli_files", 166)])
def test_tracing_changes_no_result_and_restores_everything(name, n_ops, tmp_path, monkeypatch):
    before = _snapshot()
    plain, traced, layer = _run_pair(name, tmp_path, monkeypatch, n_ops)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert traced.details == plain.details
    assert traced.failed == plain.failed == 0
    assert set(layer) | {"import.numpy_ms", "import.krauslab_ms", "trace.overhead_frac",
                         "cli.known_defect_failures"} == {
        spec["name"] for spec in metrics.PER_LAYER
    } == set(metrics.LAYER_MAP)
    if name == "pairs":
        assert layer["linalg.eigh.calls"] == 0 and layer["linalg.lapack_calls"] == 4
        assert layer["serialize.load.self_us"] == layer["serialize.bytes_read"] == 0
    if name == "sweep":
        assert layer["linalg.eigh.calls"] == 2
        assert layer["linalg.eigh.distinct_ratio"] < 0.1


def test_only_the_ops_that_fail_are_known_defects(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.build("cli_files", 5, str(tmp_path))
    assert len(wl.ops) + len(wl.known_defects) == len(inputs.cli_inputs(5)[0])
    assert {op.kind for op in wl.known_defects} == {"invalid-nan-offdiag"}
    assert "invalid-nan-diag" in {op.kind for op in wl.ops}
    assert measure(wl, 0.0, min_ops=len(wl.ops)).failed == 0
    failing, lines = known_defect_probe(wl)
    assert failing == len(wl.known_defects) == len(lines) == 2
    assert all("still fails" in line for line in lines)


def test_every_binding_is_traced(tmp_path):
    import krauslab
    from krauslab import cli, kraus, states

    originals = (krauslab.general_qubit_kraus, kraus.diagonalize_state, cli.evolve_joint,
                 states.diagonalize_state, np.linalg.eigvalsh)
    with spans.tracing(spans.SpanRecorder(1e-10)):
        wrapped = (krauslab.general_qubit_kraus, kraus.diagonalize_state, cli.evolve_joint,
                   states.diagonalize_state, np.linalg.eigvalsh)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert (krauslab.general_qubit_kraus, kraus.diagonalize_state, cli.evolve_joint,
            states.diagonalize_state, np.linalg.eigvalsh) == originals


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
