"""Command-line front end.

Exit codes are stable across subcommands: 0 every check passed, 1 a numeric
check failed, 2 the input was invalid (parse error or invalid state).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import serialize
from .dynamics import (
    SWEEP_COLUMNS,
    PropagatorError,
    evolve_joint,  # noqa: F401  (unused here; perfbench/test_perfbench.py traces this binding)
    factor_local_unitary,
    reduced_dynamics,
    sweep_columns,
)
from .kraus import closed_form_qubit_kraus, general_qubit_kraus, measure_prepare_kraus, unitary_remix, verify_channel
from .linalg import EPS, bound, failures
from .states import StateValidationError

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

#: ``kraus --method`` -> the constructor it calls on the two states.
KRAUS_METHODS = {
    "general": general_qubit_kraus,
    "closed-form": closed_form_qubit_kraus,
    "measure-prepare": measure_prepare_kraus,
}

#: The sweep columns checked against --tol; NaN entries are not checked.
RESIDUAL_COLUMNS = ("completeness_residual", "reconstruction_residual", "trace_distance_analytic_vs_numeric")


class InputError(ValueError):
    """Anything wrong with the inputs; maps to exit code 2."""


def _load(path: str, decode, *args):
    """Read the JSON file at ``path`` and return ``decode(obj, *args)``.

    Every way the file can be unreadable or invalid is an InputError.
    """
    try:
        return decode(serialize.load(path), *args)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to parse
        raise InputError(f"{path}: JSON parse error: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or as bytes, line ends unchanged, to ``out``; an unwritable ``out`` is an InputError."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "wb") as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise InputError(f"{out}: {exc.strerror or exc}") from exc


def _verdict(args, checks: dict, d: int, where=lambda check: "") -> int:
    """The CLI's one verdict: ``checks``, residuals computed in d dimensions, are judged at --tol + bound(0, d).
    Print ``<command>: <check> <worst> > tol <tol>`` + ``where(check)`` per failed check; return the exit code."""
    failed = failures(checks, args.tol + bound(0, d))
    for name, worst in failed.items():
        print(f"{args.command}: {name} {worst:.3e} > tol {args.tol:.3e}{where(name)}", file=sys.stderr)
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_validate(args) -> int:
    try:
        state = _load(args.state, serialize.state_from_json, args.tol)
    except InputError as exc:
        if not isinstance(exc.__cause__, StateValidationError):
            raise
        violations = {name: res if math.isfinite(res) else None for name, res in exc.__cause__.violations.items()}
        print(json.dumps({"valid": False, "violations": violations}))  # JSON has no NaN or infinity: null
        return EXIT_INVALID
    print(json.dumps({"valid": True, "dim": state.dim}))
    return EXIT_OK


def cmd_kraus(args) -> int:
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    try:
        k = KRAUS_METHODS[args.method](rho0, rhot)
    except ValueError as exc:
        raise InputError(f"--method {args.method} cannot connect states of dims {rho0.dim} and {rhot.dim}") from exc
    report = verify_channel(k, rho0, rhot)
    _write(serialize.kraus_text(k) + "\n", args.out)
    _write(serialize.report_text(report) + "\n", None)
    return _verdict(args, report.checks(), max(k.d_in, k.d_out))


def cmd_evolve(args) -> int:
    h, joint, _ = _load(args.scenario, serialize.scenario_from_json, args.tol)
    rd = reduced_dynamics(h, joint, args.t)
    residual = rd.decomposition_residual()
    doc = {"t": args.t, "rho_i_t": rd.rho_i_t.mat, "delta_rho": rd.inhom, "rho_cor_0": rd.cor,
           "decomposition_residual": residual}
    _write(serialize.text(doc) + "\n", args.out)
    return _verdict(args, {"decomposition_residual": residual}, joint.d_i * joint.d_e)


def cmd_sweep(args) -> int:
    h, joint, sc = _load(args.scenario, serialize.scenario_from_json, args.tol)
    if args.steps < 2:
        raise InputError(f"steps must be >= 2, got {args.steps}")
    if args.t_end == args.t_start:
        raise InputError("degenerate grid: t_start equals t_end")
    cols = sweep_columns(h, joint, np.linspace(args.t_start, args.t_end, args.steps), sc)
    table = np.column_stack([cols[col] for col in SWEEP_COLUMNS])
    if args.format == "json":
        _write(serialize.rows_text(SWEEP_COLUMNS, table) + "\n", args.out)
    else:
        # The bytes of csv.writer with f"{value:.12g}" cells: no cell needs quoting.
        csv_rows = (",".join(["%.12g"] * len(SWEEP_COLUMNS)) + "\r\n") * len(table)
        _write(",".join(SWEEP_COLUMNS) + "\r\n" + csv_rows % tuple(table.ravel().tolist()), args.out)
    checks = {col: np.where(np.isnan(cols[col]), -np.inf, cols[col]) for col in RESIDUAL_COLUMNS}  # NaN: unchecked
    return _verdict(args, checks, joint.d_i * joint.d_e,
                    lambda col: f", worst at t = {cols['t'][np.argmax(checks[col])]:.12g}")


def cmd_verify(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    report = verify_channel(k, rho0, rhot)
    _write(serialize.report_text(report) + "\n", None)
    return _verdict(args, report.checks(), max(k.d_in, k.d_out))


def cmd_remix(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    v = _load(args.unitary, serialize.matrix_from_json)
    remixed = unitary_remix(k, v, tol=args.tol)
    overflow = np.where(np.isfinite(remixed.ops), 0.0, abs(remixed.ops))  # inf or NaN where a finite sum overflowed
    if code := _verdict(args, {"overflow": overflow}, max(k.d_in, k.d_out)):
        return code  # a document with null entries would not read back
    _write(serialize.kraus_text(remixed) + "\n", args.out)
    return EXIT_OK


def cmd_factor(args) -> int:
    u = _load(args.unitary, serialize.matrix_from_json)
    d_i, d_e = args.dims
    u_i, u_e, residual = factor_local_unitary(u, (d_i, d_e), tol=args.tol)
    if code := _verdict(args, {"product": residual}, d_i * d_e):
        print(json.dumps({"factorable": False}))
        return code
    _write(serialize.text({"factorable": True, "u_i": u_i, "u_e": u_e}) + "\n", args.out)
    return EXIT_OK


def finite(text: str) -> float:
    """argparse type: a finite float (the name shows in argparse's error)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    if not (value := finite(text)) >= 0:
        raise ValueError(text)
    return value


class Command(NamedTuple):
    """One subcommand: its handler, its help, its positionals and its options, each option string mapped
    to its ``add_argument`` keywords."""

    func: Callable[[argparse.Namespace], int]
    help: str
    positionals: tuple[str, ...]
    options: dict[str, dict]


#: The global options, which go before the command: option string -> ``add_argument`` keywords.
GLOBAL_OPTIONS = {
    "--tol": {"type": tolerance, "default": EPS, "help": "absolute tolerance (max-norm)"},
    "--out": {"default": None, "help": "write primary output to this path"},
}

#: The CLI's one grammar, in argparse's order: ``build_parser`` builds argparse's parser from it and
#: ``_read`` reads a canonical argv with it, so the two cannot disagree on a command or an option.
COMMANDS = {
    "validate": Command(cmd_validate, "check a state file against the density-matrix invariants", ("state",), {}),
    "kraus": Command(cmd_kraus, "construct a Kraus set connecting two states", ("rho0", "rhot"),
                     {"--method": {"choices": list(KRAUS_METHODS), "default": "general"}}),
    "evolve": Command(cmd_evolve, "evolve a scenario and report the inhomogeneous term", ("scenario",),
                      {"--t": {"type": finite, "required": True}}),
    "sweep": Command(cmd_sweep, "tabulate scenario quantities over a time grid", ("scenario",), {
        "--t-start": {"type": finite, "required": True},
        "--t-end": {"type": finite, "required": True},
        "--steps": {"type": int, "required": True},
        "--format": {"choices": ["csv", "json"], "default": "csv", "help": "row format"},
    }),
    "verify": Command(cmd_verify, "verify a Kraus set against a state pair", ("kraus", "rho0", "rhot"), {}),
    "remix": Command(cmd_remix, "remix a Kraus set by a unitary matrix", ("kraus", "unitary"), {}),
    "factor": Command(cmd_factor, "factor a joint unitary into local factors if possible", ("unitary",),
                      {"--dims": {"type": int, "nargs": 2, "required": True, "metavar": ("D_I", "D_E")}}),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once from ``GLOBAL_OPTIONS`` and ``COMMANDS`` and shared between calls, so callers
    must not modify it."""
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Construct and verify Kraus representations for open qubit systems.",
    )
    for flag, keywords in GLOBAL_OPTIONS.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.positionals:
            p.add_argument(dest)
        for flag, keywords in command.options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=command.func)
    return parser


def _dest(flag: str) -> str:
    """The attribute argparse stores an option under: ``--t-start`` -> ``t_start``."""
    return flag[2:].replace("-", "_")


def _read(argv: list) -> argparse.Namespace | None:
    """The Namespace argparse returns for a canonical ``argv``, read from the grammar without argparse; else None.

    Canonical: exact global option strings, each with its value, then the command, then exactly its positionals
    in any order with its exact options, each with its nargs values; every token a str, no option twice, none
    missing that is required, and no value that begins with "-".  Each value goes through its option's type and
    choices as in argparse.  Anything else, an abbreviation, ``--opt=value``, ``-h``, ``--`` or a value argparse
    rejects among them, is None: argparse reads that argv, with its help, its usage and its errors.
    """
    if any(type(token) is not str for token in argv):
        return None
    values, positionals, command, options = {}, [], None, GLOBAL_OPTIONS
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in options:
            keywords = options[token]
            nargs, convert, choices = keywords.get("nargs"), keywords.get("type"), keywords.get("choices")
            raw = argv[i + 1:i + 1 + (nargs or 1)]
            if _dest(token) in values or len(raw) != (nargs or 1) or any(value[:1] == "-" for value in raw):
                return None
            try:
                converted = [value if convert is None else convert(value) for value in raw]
            except (ValueError, TypeError, argparse.ArgumentTypeError):  # what argparse reports as an invalid value
                return None
            if choices is not None and any(value not in choices for value in converted):
                return None
            values[_dest(token)] = converted if nargs else converted[0]
            i += len(raw)
        elif token[:1] == "-":
            return None
        elif command is not None:
            positionals.append(token)
        elif token in COMMANDS:
            command, options = COMMANDS[token], COMMANDS[token].options
            values["command"] = token
        else:
            return None
        i += 1
    if command is None or len(positionals) != len(command.positionals):
        return None
    for flag, keywords in (*GLOBAL_OPTIONS.items(), *command.options.items()):
        if _dest(flag) not in values:
            if keywords.get("required"):
                return None
            values[_dest(flag)] = keywords.get("default")
    return argparse.Namespace(**values, **dict(zip(command.positionals, positionals)), func=command.func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # an overflow shows in the residual it makes and the exit code, not on stderr
            return args.func(args)
    except (StateValidationError, PropagatorError) as exc:  # computed: a failed input state is an InputError
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # an input too large to compute on, such as a huge sweep --steps
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
