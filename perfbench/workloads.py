"""The three workloads: what one op calls, what it counts as, and its check.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned and been checked.  Only ``call`` is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import krauslab as kl
from krauslab import cli

import inputs

#: The CLI's default tolerance; every check uses it.
TOL = 1e-10

#: Op kinds whose failures are known defects of the program at the commit
#: that defined the benchmark, and only those: at that commit every op of
#: these kinds fails and every other op passes.  They are taken out of the
#: timed cycle, so that no timed op fails, and run once per run, untimed, by
#: ``worker.known_defect_probe``, which lists each one and whether it still fails.
KNOWN_DEFECTS = {
    "invalid-nan-offdiag": "an off-diagonal NaN passes validate (exit 0) and makes kraus raise; "
    "the contract says exit 2",
}


@dataclass
class Pairs:
    """Per op: a block of state pairs (see inputs.PAIR_BLOCK_MIX); per pair,
    validate both states, build the Kraus pair, verify it."""

    ops: list
    warmup_ops: int = 16
    known_defects = ()

    def prepare(self, op) -> None:
        pass

    @staticmethod
    def call(op):
        reports = []
        for a, b in op:
            rho0 = kl.validate_density(a)
            rhot = kl.validate_density(b)
            reports.append(kl.verify_channel(kl.general_qubit_kraus(rho0, rhot), rho0, rhot))
        return reports

    @staticmethod
    def items(op) -> int:
        return len(op)

    @staticmethod
    def check(op, result) -> tuple[bool, str]:
        if isinstance(result, BaseException):
            return False, f"raised {type(result).__name__}: {result}"
        details = [repr(tuple(vars(report).values())) for report in result]
        for k, report in enumerate(result):
            if not report.passes(TOL):
                return False, f"pair {k}: report fails passes({TOL:g}): {details[k]}"
        return True, "\n".join(details)

    @staticmethod
    def describe(op) -> str:
        return f"{len(op)} x (validate_density x2, general_qubit_kraus, verify_channel)"


@dataclass
class CliCalls:
    """Per op: one ``krauslab.cli.main`` call on files written at set-up.

    ``ops`` is the timed cycle; ``known_defects`` holds the generated ops of a
    kind in ``KNOWN_DEFECTS``.  Warm-up is one cycle unless ``warmup_ops`` is set.
    """

    ops: list
    known_defects: list
    warmup_ops: int | None = None

    @classmethod
    def build(cls, seed: int, workdir: str, generator, warmup_ops: int | None = None) -> "CliCalls":
        ops, files = generator(seed)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        return cls([op for op in ops if known_defect(op) is None],
                   [op for op in ops if known_defect(op) is not None], warmup_ops)

    def __post_init__(self):
        self._buf = io.StringIO()
        if self.warmup_ops is None:
            self.warmup_ops = len(self.ops)

    def prepare(self, op: inputs.CliOp) -> None:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        self._buf.seek(0)
        self._buf.truncate()

    def call(self, op: inputs.CliOp):
        with contextlib.redirect_stdout(self._buf), contextlib.redirect_stderr(self._buf):
            return cli.main(list(op.argv))

    @staticmethod
    def items(op: inputs.CliOp) -> int:
        return op.items

    def check(self, op: inputs.CliOp, result) -> tuple[bool, str]:
        if isinstance(result, SystemExit):
            result = result.code
        if isinstance(result, BaseException):
            return False, f"expected exit {op.expect}, raised {type(result).__name__}: {result}"
        if result != op.expect:
            return False, f"expected exit {op.expect}, got {result}"
        detail = f"exit {result}\n{self._buf.getvalue()}"
        if op.expect == 0 and op.out:
            try:
                with open(op.out) as fh:
                    text = fh.read()
            except FileNotFoundError:
                return False, f"exit 0 but {op.out} was not written"
            if op.rows is not None and text.count("\n") != op.rows:
                return False, f"{op.out} has {text.count(chr(10))} rows, expected {op.rows}"
            if op.n_ops is not None and len(json.loads(text)["ops"]) != op.n_ops:
                return False, f"{op.out} does not hold {op.n_ops} Kraus operators"
            detail += text
        return True, detail

    @staticmethod
    def describe(op: inputs.CliOp) -> str:
        return f"krauslab {' '.join(op.argv)} [{op.kind}]"


def build(name: str, seed: int, workdir: str):
    """The named workload with its inputs generated from ``seed`` (files go to ``workdir``)."""
    if name == "pairs":
        return Pairs(inputs.pair_blocks(seed))
    if name == "sweep":
        return CliCalls.build(seed, workdir, inputs.sweep_inputs, warmup_ops=2)
    if name == "cli_files":
        return CliCalls.build(seed, workdir, inputs.cli_inputs)
    raise ValueError(f"unknown workload {name!r}")


def known_defect(op) -> str | None:
    return KNOWN_DEFECTS.get(getattr(op, "kind", None))
