"""Span recorder for the traced run, installed from the benchmark's own files.

``tracing(rec)`` replaces every public function of the krauslab layer
modules (and ``krauslab.cli.main``) at every place it is bound: the module
that defines it, every krauslab module that imported it by name, and the
``krauslab`` package namespace.  It also wraps ``numpy.linalg.eigh``,
``eigvalsh`` and ``svd`` to count LAPACK calls.  Everything is put back on
exit.  Spans stay in memory until the run ends; ``layer_metrics`` turns them
into the per-layer numbers of ``metrics.PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("linalg", "states", "kraus", "dynamics", "serialize", "cli")
LAPACK = ("eigh", "eigvalsh", "svd")
ROOT_SPAN = "bench.op"

DECODE = ("matrix_from_json", "state_from_json", "kraus_from_json", "scenario_from_json")
ENCODE = ("matrix_to_json", "kraus_to_json", "report_to_json")


class SpanRecorder:
    """Spans as parallel arrays: name id, start, end, parent index, op id."""

    def __init__(self, tol: float):
        self.tol = tol
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        self.counters: Counter[str] = Counter()
        self.eigh_inputs: set[bytes] = set()
        self.patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Append a span and return its index."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def wrap(self, name: str, fn, before=None, after=None):
        """A stand-in for ``fn`` that records one span per call."""
        nid = self._id(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack,
        )
        perf = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf()
                stack.pop()
                counters[name + ".raised"] += 1
                raise
            end[idx] = perf()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span around one benchmark op; spans inside it carry ``op_id``.

        The distinct ``eigh`` inputs are counted per op, so that their ratio
        to the calls depends on neither the run length nor the throughput.
        """
        self.current_op = op_id
        self.eigh_inputs.clear()
        idx = self.record(ROOT_SPAN, time.perf_counter(), 0.0, self._stack[-1], op_id)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[idx] = time.perf_counter()
            self.current_op = -1
            self.counters["eigh_distinct"] += len(self.eigh_inputs)

    # -- hooks for the counts that need arguments or results ---------------

    def _eigh_input(self, args, kwargs):
        m = args[0] if args else kwargs.get("m")
        self.eigh_inputs.add(np.asarray(m).tobytes())

    def _verify_result(self, args, report):
        if not report.passes(self.tol):
            self.counters["verify_fail"] += 1

    def _load_result(self, args, result):
        self.counters["bytes_read"] += os.path.getsize(args[0])

    def _main_result(self, args, code):
        self.counters[f"exit_{code}"] += 1
        argv = list(args[0]) if args and args[0] is not None else []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counters["bytes_written"] += os.path.getsize(path)


def _targets(rec: SpanRecorder) -> dict[int, tuple[object, object]]:
    """id(original) -> (original, traced stand-in) for every traced function."""
    import krauslab.cli  # noqa: F401  (loads every layer module)

    hooks = {
        "linalg.eigh": {"before": rec._eigh_input},
        "kraus.verify_channel": {"after": rec._verify_result},
        "serialize.load": {"after": rec._load_result},
        "cli.main": {"after": rec._main_result},
    }
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"krauslab.{layer}"]
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or attr.startswith("_"):
                continue
            if layer == "cli" and attr != "main":
                continue
            name = f"{layer}.{attr}"
            out[id(fn)] = (fn, rec.wrap(name, fn, **hooks.get(name, {})))
    return out


def _counting(counters: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


@contextlib.contextmanager
def tracing(rec: SpanRecorder):
    """Install the recorder's stand-ins everywhere; restore the originals on exit."""
    targets = _targets(rec)
    try:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "krauslab" or modname.startswith("krauslab.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    rec.patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for attr in LAPACK:
            fn = getattr(np.linalg, attr)
            rec.patches.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, _counting(rec.counters, "lapack", fn))
        yield rec
    finally:
        for mod, attr, val in reversed(rec.patches):
            setattr(mod, attr, val)
        rec.patches.clear()


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlapping children count once.
    """
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    # Per parent, the union of its children's intervals, visited in start order.
    run_a = np.zeros(len(out))
    run_b = np.full(len(out), -np.inf)
    for k in np.argsort(start, kind="stable").tolist():
        p = int(parent[k])
        if p < 0:
            continue
        a, b = max(start[k], start[p]), min(end[k], end[p])
        if b <= a:
            continue
        if a > run_b[p]:
            if run_b[p] > run_a[p]:
                out[p] -= run_b[p] - run_a[p]
            run_a[p], run_b[p] = a, b
        elif b > run_b[p]:
            run_b[p] = b
    open_runs = run_b > run_a
    out[open_runs] -= run_b[open_runs] - run_a[open_runs]
    return out


def layer_metrics(rec: SpanRecorder, items: int, wall: float) -> dict[str, float]:
    """The span- and counter-based metrics of ``metrics.PER_LAYER``, per item."""
    ids = np.asarray(rec.name_id, dtype=np.int64)
    n = len(rec.names)
    calls = Counter(dict(zip(rec.names, np.bincount(ids, minlength=n).tolist())))
    self_s = Counter(dict(zip(
        rec.names,
        np.bincount(ids, weights=self_times(rec.start, rec.end, rec.parent), minlength=n).tolist(),
    )))
    c = rec.counters
    per = 1.0 / items

    def us(*names):
        return sum(self_s[n] for n in names) * 1e6 * per

    out = {
        "linalg.eigh.calls": calls["linalg.eigh"] * per,
        "linalg.eigh.distinct_ratio": (
            c["eigh_distinct"] / calls["linalg.eigh"] if calls["linalg.eigh"] else 0.0
        ),
        "linalg.expm_hermitian_generator.self_us": us("linalg.expm_hermitian_generator"),
        "linalg.partial_trace.calls": calls["linalg.partial_trace"] * per,
        "linalg.lapack_calls": c["lapack"] * per,
        "linalg.norm_max.calls": calls["linalg.norm_max"] * per,
        "linalg.dag.calls": calls["linalg.dag"] * per,
        "states.density_violations.calls": calls["states.density_violations"] * per,
        "states.density_violations.self_us": us("states.density_violations"),
        "states.density_to_bloch.self_us": us("states.density_to_bloch"),
        "states.diagonalize_state.self_us": us("states.diagonalize_state"),
        "states.trace_distance.self_us": us("states.trace_distance"),
        "kraus.general_qubit_kraus.self_us": us("kraus.general_qubit_kraus"),
        "kraus.verify_channel.self_us": us("kraus.verify_channel"),
        "kraus.kraus_set.calls": calls["kraus.kraus_set"] * per,
        "kraus.apply_kraus_raw.calls": calls["kraus.apply_kraus_raw"] * per,
        "kraus.verify_fail": (
            c["verify_fail"] / calls["kraus.verify_channel"] if calls["kraus.verify_channel"] else 0.0
        ),
        "dynamics.evolve_joint.self_us": us("dynamics.evolve_joint"),
        "dynamics.delta_rho.self_us": us("dynamics.delta_rho"),
        "dynamics.correlation_operator.calls": calls["dynamics.correlation_operator"] * per,
        "dynamics.cnot_analytic_kraus.self_us": us("dynamics.cnot_analytic_kraus"),
        "serialize.load.self_us": us("serialize.load"),
        "serialize.decode.self_us": us(*(f"serialize.{n}" for n in DECODE)),
        "serialize.encode.self_us": us(*(f"serialize.{n}" for n in ENCODE)),
        "serialize.bytes_read": c["bytes_read"] * per,
        "serialize.bytes_written": c["bytes_written"] * per,
        "cli.main.self_us": us("cli.main"),
        "cli.exit_0": c["exit_0"] * per,
        "cli.exit_1": c["exit_1"] * per,
        "cli.exit_2": c["exit_2"] * per,
        "cli.exceptions": c["cli.main.raised"] * per,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (
            sum(v for n, v in self_s.items() if n.startswith(layer + ".")) / wall
        )
    return out
