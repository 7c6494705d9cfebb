"""Command-line front end.

Exit codes are stable across subcommands: 0 every check passed, 1 a numeric
check failed, 2 the input was invalid (parse error or invalid state).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .dynamics import (
    CnotScenario,
    cnot_analytic_kraus,
    cnot_analytic_rho,
    correlation_operator,
    delta_rho,
    evolve_joint,
    factor_local_unitary,
    reduced_state,
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
from .linalg import EPS, expm_hermitian_generator, norm_max
from .states import StateValidationError, density_to_bloch, trace_distance

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

CSV_HEADER = [
    "t",
    "r(t)",
    "theta(t)",
    "phi(t)",
    "r_t",
    "delta_rho_maxnorm",
    "completeness_residual",
    "reconstruction_residual",
    "trace_distance_analytic_vs_numeric",
]


class InputError(Exception):
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


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    print(json.dumps(serialize.report_to_json(report), indent=2))
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def cmd_evolve(args) -> int:
    h, joint = _load(args.scenario, serialize.scenario_from_json, args.tol)
    t = args.t
    evolved = evolve_joint(h, joint, t)
    rho_t = reduced_state(evolved)
    cor = correlation_operator(joint)
    inhom = delta_rho(h, joint, t)
    # Decomposition check: reduced dynamics = factorable part + inhomogeneous term.
    u = expm_hermitian_generator(h, t)
    homogeneous = apply_kraus_raw(
        factorable_kraus(u, joint.reduced_environment(), d_i=joint.d_i),
        joint.reduced_system().mat,
    )
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


def _sweep_scenario(obj, tol: float):
    """(h, joint, sc): ``sc`` is the CnotScenario whose closed forms a CNOT sweep checks."""
    h, joint = serialize.scenario_from_json(obj, tol)
    return h, joint, CnotScenario(float(obj["r0"])) if obj["scenario"] == "cnot" else None


def _sweep_rows(args, h, joint, sc):
    if args.steps < 2:
        raise InputError(f"steps must be >= 2, got {args.steps}")
    if args.t_end == args.t_start:
        raise InputError("degenerate grid: t_start equals t_end")
    rho0 = joint.reduced_system()
    for t in np.linspace(args.t_start, args.t_end, args.steps):
        t = float(t)
        numeric = reduced_state(evolve_joint(h, joint, t))
        inhom = delta_rho(h, joint, t)
        if sc is not None:
            analytic = cnot_analytic_rho(sc, t)
            k = cnot_analytic_kraus(sc, t)
            r_t = sc.r_t(t)
        else:
            analytic = numeric
            k = general_qubit_kraus(rho0, numeric) if joint.d_i == 2 else None
            r_t = density_to_bloch(numeric).r if joint.d_i == 2 else float("nan")
        bloch = density_to_bloch(analytic) if joint.d_i == 2 else None
        yield {
            "t": t,
            "r(t)": bloch.r if bloch else float("nan"),
            "theta(t)": bloch.theta if bloch else float("nan"),
            "phi(t)": bloch.phi if bloch else float("nan"),
            "r_t": r_t,
            "delta_rho_maxnorm": norm_max(inhom),
            "completeness_residual": k.completeness_residual() if k else float("nan"),
            "reconstruction_residual": (
                norm_max(apply_kraus_raw(k, rho0.mat) - numeric.mat) if k else float("nan")
            ),
            "trace_distance_analytic_vs_numeric": trace_distance(analytic, numeric),
        }


def cmd_sweep(args) -> int:
    h, joint, sc = _load(args.scenario, _sweep_scenario, args.tol)
    rows = list(_sweep_rows(args, h, joint, sc))
    if args.format == "json":
        _emit(rows, args.out)
    else:
        with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([f"{row[col]:.12g}" for col in CSV_HEADER])
    residual_cols = [
        "completeness_residual",
        "reconstruction_residual",
        "trace_distance_analytic_vs_numeric",
    ]
    ok = all(row[col] <= args.tol for row in rows for col in residual_cols if np.isfinite(row[col]))
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_verify(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    rho0 = _load(args.rho0, serialize.state_from_json, args.tol)
    rhot = _load(args.rhot, serialize.state_from_json, args.tol)
    try:
        report = verify_channel(k, rho0, rhot)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(json.dumps(serialize.report_to_json(report), indent=2))
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def cmd_remix(args) -> int:
    k = _load(args.kraus, serialize.kraus_from_json)
    v = _load(args.unitary, serialize.matrix_from_json)
    try:
        remixed = unitary_remix(k, v, tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(serialize.kraus_to_json(remixed), args.out)
    return EXIT_OK


def cmd_factor(args) -> int:
    u = _load(args.unitary, serialize.matrix_from_json)
    d_i, d_e = args.dims
    try:
        factors = factor_local_unitary(u, (d_i, d_e), tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Construct and verify Kraus representations for open qubit systems.",
    )
    default_tol = os.environ.get("KRAUSLAB_TOL", str(EPS))
    parser.add_argument("--tol", type=finite, default=default_tol, help="absolute tolerance (max-norm)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
