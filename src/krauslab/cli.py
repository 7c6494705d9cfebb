"""Command-line front end.

Exit codes are stable across subcommands: 0 every check passed, 1 a numeric
check failed, 2 the input was invalid (parse error or invalid state).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .dynamics import (
    SWEEP_COLUMNS,
    _evolve,
    _inhomogeneous,
    _propagator,
    correlation_operator,
    evolve_joint,  # noqa: F401  (unused here; perfbench/test_perfbench.py traces this binding)
    factor_local_unitary,
    sweep_columns,
)
from .kraus import (
    apply_kraus_raw,
    closed_form_qubit_kraus,
    factorable_kraus,
    general_qubit_kraus,
    measure_prepare_kraus,
    unitary_remix,
    verify_channel,
)
from .linalg import EPS, norm_max
from .states import StateValidationError, density_to_bloch

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

CSV_HEADER = list(SWEEP_COLUMNS)

#: The sweep columns checked against --tol; NaN entries are not checked.
RESIDUAL_COLUMNS = (
    "completeness_residual",
    "reconstruction_residual",
    "trace_distance_analytic_vs_numeric",
)


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
    except json.JSONDecodeError as exc:
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


def cmd_validate(args) -> int:
    try:
        state = _load(args.state, serialize.state_from_json, args.tol)
    except InputError as exc:
        if not isinstance(exc.__cause__, StateValidationError):
            raise
        print(json.dumps({"valid": False, "violations": exc.__cause__.violations}))
        return EXIT_INVALID
    print(json.dumps({"valid": True, "dim": state.dim}))
    return EXIT_OK


def cmd_kraus(args) -> int:
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    if rho0.dim != rhot.dim or (args.method != "measure-prepare" and rho0.dim != 2):
        raise InputError(f"--method {args.method} cannot connect states of dims {rho0.dim} and {rhot.dim}")
    if args.method == "general":
        k = general_qubit_kraus(rho0, rhot)
    elif args.method == "closed-form":
        k = closed_form_qubit_kraus(density_to_bloch(rho0), density_to_bloch(rhot))
    else:
        k = measure_prepare_kraus(rho0, rhot)
    report = verify_channel(k, rho0, rhot)
    _emit(serialize.kraus_to_json(k), args.out)
    _emit(serialize.report_to_json(report), None)
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def cmd_evolve(args) -> int:
    h, joint = _load(args.scenario, serialize.scenario_from_json, args.tol)
    t = args.t
    u = _propagator(h, joint, t)  # the one eigendecomposition of h
    rho_t = _evolve(u, joint).reduced_system()
    rho_i0, rho_e0 = joint.reduced_system(), joint.reduced_environment()
    cor = correlation_operator(joint, rho_i0, rho_e0)
    inhom = _inhomogeneous(u, joint, cor)
    # Decomposition check: reduced dynamics = factorable part + inhomogeneous term.
    homogeneous = apply_kraus_raw(factorable_kraus(u, rho_e0, d_i=joint.d_i), rho_i0.mat)
    residual = norm_max(rho_t.mat - homogeneous - inhom)
    _emit(
        {
            "t": t,
            "rho_i_t": serialize.matrix_to_json(rho_t.mat),
            "delta_rho": serialize.matrix_to_json(inhom),
            "rho_cor_0": serialize.matrix_to_json(cor),
            "decomposition_residual": residual,
        },
        args.out,
    )
    return EXIT_OK if residual <= args.tol else EXIT_NUMERIC


def cmd_sweep(args) -> int:
    h, joint, sc = _load(args.scenario, serialize._scenario_from_json, args.tol)
    if args.steps < 2:
        raise InputError(f"steps must be >= 2, got {args.steps}")
    if args.t_end == args.t_start:
        raise InputError("degenerate grid: t_start equals t_end")
    cols = sweep_columns(h, joint, np.linspace(args.t_start, args.t_end, args.steps), sc)
    table = np.column_stack([cols[col] for col in CSV_HEADER])
    if args.format == "json":
        _emit([dict(zip(CSV_HEADER, row)) for row in table.tolist()], args.out)
    else:
        # The bytes of csv.writer with f"{value:.12g}" cells: no cell needs quoting.
        csv_rows = (",".join(["%.12g"] * len(CSV_HEADER)) + "\r\n") * len(table)
        _write(",".join(CSV_HEADER) + "\r\n" + csv_rows % tuple(table.ravel().tolist()), args.out, newline="")
    ok = True
    for col in RESIDUAL_COLUMNS:
        finite = np.where(np.isfinite(cols[col]), cols[col], -np.inf)
        worst = int(np.argmax(finite))
        if finite[worst] > args.tol:
            ok = False
            t = cols["t"][worst]
            print(f"sweep: {col} {finite[worst]:.3e} > tol {args.tol:.3e}, worst at t = {t:.12g}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_verify(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    report = verify_channel(k, rho0, rhot)
    _emit(serialize.report_to_json(report), None)
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def cmd_remix(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    v = _load(args.unitary, serialize.matrix_from_json)
    remixed = unitary_remix(k, v, tol=args.tol)
    _emit(serialize.kraus_to_json(remixed), args.out)
    return EXIT_OK


def cmd_factor(args) -> int:
    u = _load(args.unitary, serialize.matrix_from_json)
    d_i, d_e = args.dims
    factors = factor_local_unitary(u, (d_i, d_e), tol=args.tol)
    if factors is None:
        print(json.dumps({"factorable": False}))
        return EXIT_NUMERIC
    u_i, u_e = factors
    _emit(
        {
            "factorable": True,
            "u_i": serialize.matrix_to_json(u_i),
            "u_e": serialize.matrix_to_json(u_e),
        },
        args.out,
    )
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with ``--tol`` defaulting to ``KRAUSLAB_TOL`` as set now.

    The environment is read on every call; the parser for the latest default
    is kept and shared between calls, so callers must not modify it.
    """
    return _parser(os.environ.get("KRAUSLAB_TOL", str(EPS)))


@functools.lru_cache(maxsize=1)
def _parser(default_tol: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Construct and verify Kraus representations for open qubit systems.",
    )
    parser.add_argument("--tol", type=tolerance, default=default_tol, help="absolute tolerance (max-norm)")
    parser.add_argument("--out", default=None, help="write primary output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file against the density-matrix invariants")
    p.add_argument("state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kraus", help="construct a Kraus set connecting two states")
    p.add_argument("rho0")
    p.add_argument("rhot")
    p.add_argument(
        "--method",
        choices=["general", "closed-form", "measure-prepare"],
        default="general",
    )
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
        return args.func(args)
    except StateValidationError as exc:  # a computed state: a failed input state is an InputError
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
