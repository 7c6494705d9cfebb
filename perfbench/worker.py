"""Runs one workload in this fresh process and prints its result as JSON.

Started by ``run.py`` with BLAS pinned to one thread and ``src/`` on the
path.  Usage: ``worker.py WORKLOAD SEED SECONDS TRACE WORKDIR``.  The
process works inside WORKDIR and removes it before it exits.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

import calibrate
import metrics
import spans
import workloads

MIN_OPS = 100  # so that op_p90_ms has at least 10 samples beyond it
MIN_TRACED_OPS = 10


@dataclass
class Phase:
    """What one timed pass over a workload's op cycle produced."""

    durations: array = field(default_factory=lambda: array("d"))
    starts: array = field(default_factory=lambda: array("d"))
    probe: calibrate.SpeedProbe = field(default_factory=calibrate.SpeedProbe)
    items: int = 0
    wall: float = 0.0
    failures: dict[int, list] = field(default_factory=lambda: defaultdict(lambda: [0, ""]))
    details: list[str] | None = None

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return sum(n for n, _ in self.failures.values())

    def scaled(self) -> list[float]:
        """Op durations on a host as fast as the nominal one (see calibrate)."""
        return [d * f for d, f in zip(self.durations, self.probe.factors(self.starts))]

    def throughput(self) -> float:
        return self.items / sum(self.scaled())


def measure(workload, seconds: float, min_ops: int = MIN_OPS, recorder=None,
            keep_details: bool = False) -> Phase:
    """Closed loop over the op cycle for ``seconds`` and at least ``min_ops`` ops.

    Between ops the phase's speed probe runs the reference kernel for about a
    tenth of the busy time.
    """
    ops, n = workload.ops, len(workload.ops)
    phase = Phase(details=[] if keep_details else None)
    perf = time.perf_counter
    t_start = perf()
    deadline = t_start + seconds
    i = 0
    busy = 0.0
    while i < min_ops or perf() < deadline:
        op = ops[i % n]
        workload.prepare(op)
        with recorder.op_span(i) if recorder else contextlib.nullcontext():
            t0 = perf()
            try:
                result = workload.call(op)
            except (Exception, SystemExit) as exc:  # a failed op is counted, never fatal
                result = exc
            t1 = perf()
        ok, detail = workload.check(op, result)
        phase.starts.append(t0)
        phase.durations.append(t1 - t0)
        busy += t1 - t0
        phase.probe.maybe_sample(busy)
        phase.items += workload.items(op)
        if keep_details:
            phase.details.append(detail)
        if not ok:
            record = phase.failures[i % n]
            record[0] += 1
            record[1] = record[1] or detail
        i += 1
    phase.wall = perf() - t_start
    return phase


def failure_lines(workload, phase: Phase, label: str) -> list[str]:
    """One line per failing op of the cycle, with its count and first failure."""
    n = len(workload.ops)
    lines = []
    for idx in sorted(phase.failures):
        count, detail = phase.failures[idx]
        runs = phase.attempted // n + (idx < phase.attempted % n)
        lines.append(f"{label}op {idx} {workload.describe(workload.ops[idx])}: "
                     f"failed {count}/{runs}: {detail}")
    return lines


def known_defect_probe(workload) -> tuple[int, list[str]]:
    """Run each op of ``workload.known_defects`` once, untimed and outside
    ``attempted``; returns how many of them still fail and one line for each."""
    failing, lines = 0, []
    for op in workload.known_defects:
        workload.prepare(op)
        try:
            result = workload.call(op)
        except (Exception, SystemExit) as exc:
            result = exc
        ok, detail = workload.check(op, result)
        failing += not ok
        status = "now passes" if ok else f"still fails: {detail}"
        lines.append(f"known defect, run once untimed: {workload.describe(op)}: {status} "
                     f"({workloads.known_defect(op)})")
    return failing, lines


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = workloads.build(name, seed, os.getcwd())
    known_failing, known_lines = known_defect_probe(wl)
    measure(wl, 0.0, min_ops=wl.warmup_ops)
    if not traced:
        phase = measure(wl, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p50, p90 = metrics.percentiles(phase.scaled())
        values = {
            "throughput_per_s": phase.throughput(),
            "raw_throughput_per_s": phase.items / sum(phase.durations),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        phases = {"": phase}
    else:
        plain = measure(wl, seconds / 2, min_ops=MIN_TRACED_OPS)
        rec = spans.SpanRecorder(workloads.TOL)
        with spans.tracing(rec):
            phase = measure(wl, seconds / 2, min_ops=MIN_TRACED_OPS, recorder=rec)
        values = spans.layer_metrics(rec, phase.items, phase.wall - sum(phase.probe.took))
        values["trace.overhead_frac"] = 1.0 - phase.throughput() / plain.throughput()
        values["cli.known_defect_failures"] = known_failing
        phases = {"untraced ": plain, "traced ": phase}
    return {
        "attempted": sum(p.attempted for p in phases.values()),
        "failed": sum(p.failed for p in phases.values()),
        "correct": all(p.failed == 0 for p in phases.values()),
        "items": phase.items,
        "ops": phase.attempted,
        "failures": [line for label, p in phases.items() for line in failure_lines(wl, p, label)],
        "known_defects": known_lines,
        "metrics": values,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, traced, workdir = argv
    workdir = os.path.abspath(workdir)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(workloads.kl.__file__).startswith(src + os.sep):
        print(f"error: krauslab was imported from {workloads.kl.__file__}, not {src}", file=sys.stderr)
        return 2
    os.makedirs(workdir)
    try:
        os.chdir(workdir)
        result = run(name, int(seed), float(seconds), traced == "1")
    finally:
        os.chdir(os.path.dirname(workdir))
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
