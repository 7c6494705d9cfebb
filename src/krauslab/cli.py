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

import numpy as np

from . import serialize
from .dynamics import (
    SWEEP_COLUMNS,
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


def _write(text: str, out: str | None, newline: str | None = None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one; an unwritable ``out`` is an InputError."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{out}: {exc.strerror or exc}") from exc


def _emit(obj, out: str | None) -> None:
    _write(serialize.dumps(obj) + "\n", out)


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
    _emit(serialize.kraus_to_json(k), args.out)
    _emit(serialize.report_to_json(report), None)
    return _verdict(args, report.checks(), max(k.d_in, k.d_out))


def cmd_evolve(args) -> int:
    h, joint, _ = _load(args.scenario, serialize.scenario_from_json, args.tol)
    rd = reduced_dynamics(h, joint, args.t)
    residual = rd.decomposition_residual()
    _emit(
        {
            "t": args.t,
            "rho_i_t": serialize.matrix_to_json(rd.rho_i_t.mat),
            "delta_rho": serialize.matrix_to_json(rd.inhom),
            "rho_cor_0": serialize.matrix_to_json(rd.cor),
            "decomposition_residual": residual,
        },
        args.out,
    )
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
        _emit([dict(zip(SWEEP_COLUMNS, row)) for row in table.tolist()], args.out)
    else:
        # The bytes of csv.writer with f"{value:.12g}" cells: no cell needs quoting.
        csv_rows = (",".join(["%.12g"] * len(SWEEP_COLUMNS)) + "\r\n") * len(table)
        _write(",".join(SWEEP_COLUMNS) + "\r\n" + csv_rows % tuple(table.ravel().tolist()), args.out, newline="")
    checks = {col: np.where(np.isnan(cols[col]), -np.inf, cols[col]) for col in RESIDUAL_COLUMNS}  # NaN: unchecked
    return _verdict(args, checks, joint.d_i * joint.d_e,
                    lambda col: f", worst at t = {cols['t'][np.argmax(checks[col])]:.12g}")


def cmd_verify(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    report = verify_channel(k, rho0, rhot)
    _emit(serialize.report_to_json(report), None)
    return _verdict(args, report.checks(), max(k.d_in, k.d_out))


def cmd_remix(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    v = _load(args.unitary, serialize.matrix_from_json)
    remixed = unitary_remix(k, v, tol=args.tol)
    _emit(serialize.kraus_to_json(remixed), args.out)
    return EXIT_OK


def cmd_factor(args) -> int:
    u = _load(args.unitary, serialize.matrix_from_json)
    d_i, d_e = args.dims
    u_i, u_e, residual = factor_local_unitary(u, (d_i, d_e), tol=args.tol)
    if code := _verdict(args, {"product": residual}, d_i * d_e):
        print(json.dumps({"factorable": False}))
        return code
    _emit({"factorable": True, "u_i": serialize.matrix_to_json(u_i), "u_e": serialize.matrix_to_json(u_e)}, args.out)
    return EXIT_OK


def finite(text: str) -> float:
    """argparse type: a finite float (the name shows in argparse's error)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    if not finite(text) >= 0:
        raise ValueError(text)
    return float(text)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once and shared between calls, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Construct and verify Kraus representations for open qubit systems.",
    )
    parser.add_argument("--tol", type=tolerance, default=EPS, help="absolute tolerance (max-norm)")
    parser.add_argument("--out", default=None, help="write primary output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file against the density-matrix invariants")
    p.add_argument("state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kraus", help="construct a Kraus set connecting two states")
    p.add_argument("rho0")
    p.add_argument("rhot")
    p.add_argument("--method", choices=list(KRAUS_METHODS), default="general")
    p.set_defaults(func=cmd_kraus)

    p = sub.add_parser("evolve", help="evolve a scenario and report the inhomogeneous term")
    p.add_argument("scenario")
    p.add_argument("--t", type=finite, required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="tabulate scenario quantities over a time grid")
    p.add_argument("scenario")
    p.add_argument("--t-start", type=finite, required=True)
    p.add_argument("--t-end", type=finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="row format")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="verify a Kraus set against a state pair")
    p.add_argument("kraus")
    p.add_argument("rho0")
    p.add_argument("rhot")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("remix", help="remix a Kraus set by a unitary matrix")
    p.add_argument("kraus")
    p.add_argument("unitary")
    p.set_defaults(func=cmd_remix)

    p = sub.add_parser("factor", help="factor a joint unitary into local factors if possible")
    p.add_argument("unitary")
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("D_I", "D_E"))
    p.set_defaults(func=cmd_factor)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # an overflow shows in the residual it makes and the exit code, not on stderr
            return args.func(args)
    except StateValidationError as exc:  # a computed state: a failed input state is an InputError
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
