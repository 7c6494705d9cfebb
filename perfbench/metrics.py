"""The metrics the benchmark reports, as ``BENCHMARK.json`` declares them.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics with their units, directions and bounds.  ``END_TO_END`` is what a
user of krauslab sees; it is measured with tracing off.  ``PER_LAYER`` comes
from the separate traced run.  ``LAYER_MAP`` holds what ``BENCHMARK.json``
has no key for: which end-to-end metric each layer metric should move, and
on which workload, so that a change to one layer can be checked against the
end-to-end number it claims to move.
"""

from __future__ import annotations

import json
import os
import statistics

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: Workload name -> why it is in the benchmark.
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]

#: Layer metric -> the end-to-end metric it should move, and on which workload.
LAYER_MAP = {
    "linalg.eigh.calls":
        "throughput_per_s and op_p50_ms on sweep (2 per step at seed); no change on pairs (0)",
    "linalg.eigh.distinct_ratio":
        "distinct input matrices per op / eigh calls: throughput_per_s and op_p50_ms on sweep",
    "linalg.expm_hermitian_generator.self_us": "throughput_per_s and op_p50_ms on sweep",
    "linalg.partial_trace.calls": "throughput_per_s and op_p50_ms on sweep",
    "linalg.lapack_calls":
        "numpy.linalg eigh/eigvalsh/svd calls: throughput_per_s on pairs and sweep",
    "linalg.norm_max.calls": "throughput_per_s on pairs and sweep",
    "linalg.dag.calls": "throughput_per_s on pairs and sweep",
    "linalg.self_share": "layer self time / traced wall time, all workloads",
    "states.density_violations.calls": "throughput_per_s on pairs and sweep",
    "states.density_violations.self_us": "throughput_per_s on pairs and sweep",
    "states.density_to_bloch.self_us": "throughput_per_s on pairs",
    "states.diagonalize_state.self_us": "throughput_per_s on pairs",
    "states.trace_distance.self_us": "throughput_per_s on sweep",
    "states.self_share": "layer self time / traced wall time, all workloads",
    "kraus.general_qubit_kraus.self_us":
        "throughput_per_s on pairs; no change on the CNOT part of sweep",
    "kraus.verify_channel.self_us":
        "throughput_per_s on pairs; no change on the CNOT part of sweep",
    "kraus.kraus_set.calls": "throughput_per_s on pairs; no change on the CNOT part of sweep",
    "kraus.apply_kraus_raw.calls":
        "throughput_per_s on pairs; no change on the CNOT part of sweep",
    "kraus.verify_fail": "reports failing passes(tol) / verify_channel calls: failed/attempted",
    "kraus.self_share": "layer self time / traced wall time, all workloads",
    "dynamics.evolve_joint.self_us":
        "throughput_per_s and op_p90_ms on sweep; no change on pairs",
    "dynamics.delta_rho.self_us": "throughput_per_s and op_p90_ms on sweep; no change on pairs",
    "dynamics.correlation_operator.calls":
        "throughput_per_s and op_p90_ms on sweep; no change on pairs",
    "dynamics.cnot_analytic_kraus.self_us":
        "throughput_per_s and op_p90_ms on sweep; no change on pairs",
    "dynamics.self_share": "layer self time / traced wall time, all workloads",
    "serialize.load.self_us": "op_p50_ms on cli_files; 0 on pairs",
    "serialize.decode.self_us":
        "matrix/state/kraus/scenario_from_json: op_p50_ms on cli_files; 0 on pairs",
    "serialize.encode.self_us":
        "matrix_to_json, kraus_to_json, report_to_json: op_p50_ms on cli_files; 0 on pairs",
    "serialize.bytes_read": "size of the files serialize.load read; op_p50_ms on cli_files",
    "serialize.bytes_written": "size of the --out files the CLI wrote; op_p50_ms on cli_files",
    "serialize.self_share": "layer self time / traced wall time, all workloads",
    "cli.main.self_us":
        "argparse, CSV/JSON emit, printing: op_p50_ms on cli_files, a little on sweep",
    "cli.exit_0": "failed/attempted on cli_files",
    "cli.exit_1": "failed/attempted on cli_files",
    "cli.exit_2": "failed/attempted on cli_files",
    "cli.exceptions": "failed/attempted on cli_files",
    "cli.known_defect_failures":
        "ops of a KNOWN_DEFECTS kind, run once untimed per run, that still fail (2 at the "
        "benchmark's first commit); none of the timed metrics",
    "cli.self_share": "layer self time / traced wall time, all workloads",
    "import.numpy_ms": "setup_s",
    "import.krauslab_ms": "sum of krauslab module self times in -X importtime: setup_s",
    "trace.overhead_frac": "1 - traced / untraced throughput_per_s; none (tracing cost)",
}


def percentiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of the values, by linear interpolation between order statistics."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]
