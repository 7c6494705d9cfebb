"""JSON encodings for matrices, states, Kraus sets, reports, and scenarios.

Matrix encoding: {"rows": n, "cols": m, "data": [[re, im], ...]} with the
data row-major.  Decimal round-trip is good to full double precision.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .dynamics import CnotScenario, CompositeState, cnot_hamiltonian
from .kraus import ChannelReport, KrausSet, kraus_set
from .linalg import EPS, dag, hermiticity_residual, require
from .states import BlochVector, DensityMatrix, bloch_matrix, validate_density


class DecodeError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    m = np.ascontiguousarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.reshape(-1).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (TypeError, KeyError, ValueError) as exc:
        raise DecodeError(f"not a matrix object: missing {exc}") from exc
    try:
        values = [complex(re, im) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise DecodeError(f"matrix data must be a list of [re, im] number pairs: {exc}") from exc
    if len(values) != rows * cols:
        raise DecodeError(f"matrix data length {len(values)} != rows*cols = {rows * cols}")
    if not all(map(cmath.isfinite, values)):
        raise DecodeError("matrix data has a non-finite entry")
    return np.array(values).reshape(rows, cols)


def state_to_json(state: DensityMatrix | BlochVector) -> dict[str, Any]:
    if isinstance(state, BlochVector):
        return {"bloch": {"r": state.r, "theta": state.theta, "phi": state.phi}}
    return {"matrix": matrix_to_json(state.mat)}


def state_from_json(obj: Any, tol: float = EPS) -> DensityMatrix:
    """Decode either encoding of a state and validate it at ``tol``.

    A Bloch radius is bounded by positivity, so ``tol`` governs it exactly as
    it governs the smallest eigenvalue of a matrix state.
    """
    if not isinstance(obj, dict):
        raise DecodeError("state must be a JSON object")
    if "bloch" in obj:
        try:
            r, theta, phi = (float(obj["bloch"][key]) for key in ("r", "theta", "phi"))
            direction = BlochVector(1.0, theta, phi).cartesian()  # checks the angles are finite
        except (TypeError, KeyError, ValueError) as exc:
            raise DecodeError(f"bad bloch object: {exc}") from exc
        if not r >= 0:
            raise DecodeError(f"Bloch radius must be >= 0, got {r}")
        return validate_density(bloch_matrix(r * direction), tol=tol)
    if "matrix" in obj:
        return validate_density(matrix_from_json(obj["matrix"]), tol=tol)
    raise DecodeError("state object needs a 'bloch' or 'matrix' key")


def kraus_to_json(k: KrausSet) -> dict[str, Any]:
    if k.ops.ndim > 3:
        raise ValueError(f"cannot encode a stack of Kraus sets (stack shape {k.ops.shape[1:-2]}); encode each set")
    return {
        "d_in": k.d_in,
        "d_out": k.d_out,
        "ops": [matrix_to_json(op) for op in k.ops],
    }


def kraus_from_json(obj: Any) -> KrausSet:
    try:
        ops = [matrix_from_json(o) for o in obj["ops"]]
        return kraus_set(ops, d_in=int(obj["d_in"]), d_out=int(obj["d_out"]))
    except (TypeError, KeyError) as exc:
        raise DecodeError(f"not a Kraus-set object: {exc}") from exc


def report_to_json(report: ChannelReport) -> dict[str, float]:
    shape = np.shape(report.completeness_residual)
    if shape:
        raise ValueError(f"cannot encode a stack of reports (stack shape {shape}); encode each set's report")
    return {f.name: getattr(report, f.name) for f in fields(report)}


def scenario_from_json(obj: Any, tol: float = EPS) -> tuple[np.ndarray, CompositeState]:
    """Decode a scenario document into (hamiltonian, initial joint state).

    Two forms: {"scenario": "cnot", "r0": x} or
    {"scenario": "custom", "hamiltonian": <matrix>, "rho_ie0": <matrix>,
    "dims": [d_i, d_e]}.  A custom Hamiltonian must be Hermitian within
    ``tol``; its Hermitian part is returned.
    """
    h, joint, _ = _scenario_from_json(obj, tol)
    return h, joint


def _scenario_from_json(obj: Any, tol: float) -> tuple[np.ndarray, CompositeState, CnotScenario | None]:
    """scenario_from_json plus the decoded CnotScenario (None for a custom scenario)."""
    if not isinstance(obj, dict) or "scenario" not in obj:
        raise DecodeError("scenario object needs a 'scenario' key")
    kind = obj["scenario"]
    if kind == "cnot":
        try:
            sc = CnotScenario(float(obj["r0"]))
        except (TypeError, KeyError) as exc:
            raise DecodeError(f"cnot scenario needs 'r0': {exc}") from exc
        return cnot_hamiltonian(), sc.initial_joint(), sc
    if kind == "custom":
        try:
            h = matrix_from_json(obj["hamiltonian"])
            rho = matrix_from_json(obj["rho_ie0"])
            d_i, d_e = (int(d) for d in obj["dims"])
        except (TypeError, KeyError, ValueError) as exc:
            raise DecodeError(f"bad custom scenario: {exc}") from exc
        if min(d_i, d_e) < 1:
            raise DecodeError(f"dims must be positive, got [{d_i}, {d_e}]")
        if h.shape != (d_i * d_e, d_i * d_e):
            raise DecodeError(f"hamiltonian shape {h.shape} does not match d_i*d_e = {d_i * d_e}")
        require(hermiticity_residual(h), tol, "hamiltonian is not Hermitian", error=DecodeError)
        joint = CompositeState(mat=validate_density(rho, tol=tol), d_i=d_i, d_e=d_e)
        return (h + dag(h)) / 2, joint, None
    raise DecodeError(f"unknown scenario kind {kind!r}")


_encode_leaf = json.JSONEncoder().encode  # compact, so the C encoder


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without its pure-Python encoder.

    A matrix's ``data`` (equal-width lists of finite floats) fills one cached
    template.  What raises TypeError here (a non-``str`` key, an unknown type)
    or recurses without end is left to ``json.dumps``.
    """
    try:
        return _encode(obj, 0)
    except (TypeError, RecursionError):
        return json.dumps(obj, indent=2)


def _encode(o: Any, depth: int) -> str:
    if isinstance(o, float) and math.isfinite(o):
        return float.__repr__(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int) and not isinstance(o, bool):
        return int.__repr__(o)
    if isinstance(o, dict) and o:
        items = [encode_basestring_ascii(k) + ": " + _encode(v, depth + 1) for k, v in o.items()]
        return _layout(items, depth, "{}")
    if isinstance(o, (list, tuple)) and o:
        width = len(o[0]) if type(o[0]) is list else 0
        if width and set(map(type, o)) == {list} and set(map(len, o)) == {width}:
            flat = list(chain.from_iterable(o))
            if math.isfinite(sum(flat)):  # else a NaN or infinity: written entry by entry
                return _grid_template(len(o), width, depth) % tuple(map(float.__repr__, flat))
        return _layout([_encode(v, depth + 1) for v in o], depth)
    return _encode_leaf(o)  # None, a bool, a non-finite float, an empty container


def _layout(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Encoded items in a container at ``depth``, laid out as ``json.dumps`` does with ``indent=2``."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


@functools.lru_cache(maxsize=64)
def _grid_template(n_rows: int, width: int, depth: int) -> str:
    return _layout([_layout(["%s"] * width, depth + 1)] * n_rows, depth)


def dump(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj) + "\n")


def load(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
