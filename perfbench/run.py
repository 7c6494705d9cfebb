#!/usr/bin/env python3
"""krauslab benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload {pairs,sweep,cli_files} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root (any checkout that holds ``src/krauslab``).
With ``--trace 0`` it measures the end-to-end metrics of ``metrics.END_TO_END``
with tracing off; with ``--trace 1`` it runs the workload untraced and then
traced, for ``S/2`` seconds each, and reports ``metrics.PER_LAYER``.  Every
metric is printed by name with its unit, every failing op is listed, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SPAWNS = 41
IMPORTTIME_SPAWNS = 5


def child_env() -> dict[str, str]:
    """A fresh interpreter's environment: this checkout's src, one BLAS thread,
    the CLI's default tolerance."""
    env = {k: v for k, v in os.environ.items() if k not in ("KRAUSLAB_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median wall time from spawning an interpreter until ``import krauslab.cli``
    returns (the child reads the same monotonic clock right after the import),
    scaled by the reference kernel timed just before and just after each
    spawn (see calibrate); the raw median is returned second."""
    code = "import krauslab.cli, time; print(time.perf_counter())"
    _spawn(["-c", code], env)  # byte-compiles src once, as an installed package would be
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        refs = [calibrate.reference_block() for _ in range(3)]
        t0 = time.perf_counter()
        proc = _spawn(["-c", code], env)
        raw.append(float(proc.stdout.split()[-1]) - t0)
        refs += [calibrate.reference_block() for _ in range(3)]
        scaled.append(raw[-1] * calibrate.NOMINAL_S / statistics.median(refs))
    return statistics.median(scaled), statistics.median(raw)


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Medians from ``-X importtime``: numpy's cumulative time and the sum of
    the krauslab modules' self times, in ms."""
    numpy_ms, krauslab_ms = [], []
    _spawn(["-c", "import krauslab.cli"], env)  # byte-compiles src once
    for _ in range(IMPORTTIME_SPAWNS):
        proc = _spawn(["-X", "importtime", "-c", "import krauslab.cli"], env)
        np_us = kl_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name == "numpy":
                np_us = cumulative_us
            elif name == "krauslab" or name.startswith("krauslab."):
                kl_us += self_us
        numpy_ms.append(np_us / 1e3)
        krauslab_ms.append(kl_us / 1e3)
    return {"import.numpy_ms": statistics.median(numpy_ms),
            "import.krauslab_ms": statistics.median(krauslab_ms)}


def run_worker(args, env: dict[str, str]) -> dict:
    work = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    argv = [os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds),
            str(args.trace), workdir]
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=2 * args.seconds + 120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "krauslab", "__init__.py")):
        print(f"error: no krauslab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            extra = import_times(env)
        else:
            setup, raw_setup = setup_seconds(env)
            extra = {"setup_s": setup, "raw_setup_s": raw_setup}
        result = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = {**result["metrics"], **extra}
    specs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {spec["name"]: spec["unit"] for spec in specs}
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not produced: {', '.join(sorted(missing))}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{metrics.WORKLOADS[args.workload]}")
    for name, unit in units.items():
        raw = values.get("raw_" + name)
        note = f"  (unscaled {raw:.6g}; see calibrate.py)" if raw is not None else ""
        print(f"  {name:44s} {values[name]:14.6g} {unit}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_frac':44s} {failed / attempted:14.6g} ({failed}/{attempted} failed/attempted)")
    print(f"  {result['ops']} ops, {result['items']} items in the "
          f"{'traced' if args.trace else 'timed'} phase")
    for line in result["failures"]:
        print(f"  failure: {line}")
    for line in result["known_defects"]:
        print(f"  {line}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
