#!/usr/bin/env python3
"""Run the benchmark on two sets of seeds and report each metric's medians and spreads.

    python3 perfbench/spread.py --seeds 10 [--out perfbench/baseline.json]

Every workload runs on seeds 1..N (the first set) and N+1..2N (the second),
each run as long as ``run_seconds`` in ``BENCHMARK.json``.
The spread of a metric in a set is the distance between the first and third
quartile of its values, as ``statistics.quantiles(values, n=4)`` gives them,
as a share of their median.  The benchmark is steady when every spread, that
of setup_s included, stays below a third of the metric's bound, and the
second set's median is not worse than the first's by more than the bound.
With ``--out`` both sets' medians, quartiles and values are written as JSON,
together with the per-layer metrics of one traced run per workload (seed 1),
``metrics.LAYER_MAP`` and the line count of ``src/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return -change if better == "higher" else change


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = metrics.SPEC["run_seconds"]

    report: dict = {"workloads": {}, "per_layer": {}}
    steady = True
    for wl in metrics.WORKLOADS:
        sets = []
        for k in range(SETS):
            seeds = list(range(1 + k * args.seeds, 1 + (k + 1) * args.seeds))
            runs = [run_once(wl, seed, seconds, 0) for seed in seeds]
            summary = {
                "seeds": seeds,
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "correct": all(r["correct"] for r in runs),
            }
            steady &= summary["correct"]
            for spec in metrics.END_TO_END:
                name = spec["name"]
                s = summarize([r["metrics"][name]["value"] for r in runs])
                summary[name] = {"unit": spec["unit"], **s}
                ok = s["spread"] < spec["bound"] / 3
                steady &= ok
                print(f"{wl:10s} set {k + 1} {name:18s} median {s['median']:12.6g} "
                      f"{spec['unit']:5s} spread {s['spread']:8.4f} (bound {spec['bound']})"
                      f"{'' if ok else '  NOT STEADY'}", flush=True)
            sets.append(summary)
        for spec in metrics.END_TO_END:
            name = spec["name"]
            worse = worsening(sets[0][name]["median"], sets[-1][name]["median"], spec["better"])
            ok = worse <= spec["bound"]
            steady &= ok
            print(f"{wl:10s} {name:18s} set {SETS} is worse than set 1 by {worse:8.4f} "
                  f"(bound {spec['bound']}){'' if ok else '  DRIFTS'}", flush=True)
        report["workloads"][wl] = sets
        if args.out:
            traced = run_once(wl, 1, seconds, 1)
            report["per_layer"][wl] = {
                spec["name"]: traced["metrics"][spec["name"]]["value"] for spec in metrics.PER_LAYER
            }
    if args.out:
        report.update({
            "seconds": seconds,
            "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
            "src.lines": src_lines(),
            "layer_map": {spec["name"]: metrics.LAYER_MAP[spec["name"]] for spec in metrics.PER_LAYER},
        })
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
