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
from sys import float_info
from typing import Any

import numpy as np

from .dynamics import CnotScenario, CompositeState, cnot_hamiltonian
from .kraus import ChannelReport, KrausSet
from .linalg import EPS, dag, hermiticity_residual, require
from .states import DensityMatrix, bloch_matrix, validate_density


class DecodeError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    m = np.ascontiguousarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.reshape(-1).view(float).reshape(-1, 2).tolist(),
    }


def _positive_int(value: Any, name: str) -> int:
    """A positive integral number (``2`` or ``2.0``) as an int; anything else is a DecodeError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 1:
        raise DecodeError(f"{name} must be a positive integer, got {value!r}")
    return value


def _finite_number(value: Any, name: str) -> float:
    """A finite int or float (not a bool) as a float; anything else is a DecodeError naming ``name``."""
    if type(value) not in (int, float) or not -float_info.max <= value <= float_info.max:  # NaN fails too
        raise DecodeError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (TypeError, KeyError) as exc:
        raise DecodeError(f"not a matrix object: missing {exc}") from exc
    rows, cols = _positive_int(rows, "rows"), _positive_int(cols, "cols")
    try:
        values = [complex(re, im) for re, im in data]
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise DecodeError(f"matrix data must be a list of [re, im] number pairs: {exc}") from exc
    if len(values) != rows * cols:
        raise DecodeError(f"matrix data length {len(values)} != rows*cols = {rows * cols}")
    if not all(map(cmath.isfinite, values)):
        raise DecodeError("matrix data has a non-finite entry")
    return np.array(values).reshape(rows, cols)


def state_from_json(obj: Any, tol: float = EPS) -> DensityMatrix:
    """Decode either encoding of a state and validate it at ``tol``.

    A Bloch radius is bounded by positivity, so ``tol`` governs it exactly as
    it governs the smallest eigenvalue of a matrix state.
    """
    if not isinstance(obj, dict):
        raise DecodeError("state must be a JSON object")
    if "bloch" in obj:
        try:
            r, theta, phi = (obj["bloch"][key] for key in ("r", "theta", "phi"))
        except (TypeError, KeyError) as exc:
            raise DecodeError(f"bad bloch object: {exc}") from exc
        r, theta, phi = _finite_number(r, "Bloch radius r"), _finite_number(theta, "theta"), _finite_number(phi, "phi")
        if r < 0:
            raise DecodeError(f"Bloch radius must be >= 0, got {r}")
        return validate_density(bloch_matrix(r, theta, phi), tol=tol)
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
    """Decode a Kraus set; its declared ``d_out`` and ``d_in`` must match every operator."""
    try:
        ops, d_in, d_out = [matrix_from_json(o) for o in obj["ops"]], obj["d_in"], obj["d_out"]
    except (TypeError, KeyError) as exc:
        raise DecodeError(f"not a Kraus-set object: {exc}") from exc
    shape = (_positive_int(d_out, "d_out"), _positive_int(d_in, "d_in"))
    k = KrausSet(ops)
    if k.ops.shape[1:] != shape:
        raise DecodeError(f"operator shape {k.ops.shape[1:]} does not match {shape}")
    return k


def report_to_json(report: ChannelReport) -> dict[str, float]:
    shape = np.shape(report.completeness_residual)
    if shape:
        raise ValueError(f"cannot encode a stack of reports (stack shape {shape}); encode each set's report")
    return {f.name: getattr(report, f.name) for f in fields(report)}


def scenario_from_json(obj: Any, tol: float = EPS) -> tuple[np.ndarray, CompositeState, CnotScenario | None]:
    """Decode a scenario document into (hamiltonian, initial joint state, CnotScenario or None).

    Two forms: {"scenario": "cnot", "r0": x} or
    {"scenario": "custom", "hamiltonian": <matrix>, "rho_ie0": <matrix>,
    "dims": [d_i, d_e]}; a custom scenario has no CnotScenario.  The joint state of
    either form is validated at ``tol``.  A custom Hamiltonian must be Hermitian
    within ``tol``; its Hermitian part is returned.
    """
    if not isinstance(obj, dict) or "scenario" not in obj:
        raise DecodeError("scenario object needs a 'scenario' key")
    kind = obj["scenario"]
    if kind == "cnot":
        try:
            r0 = obj["r0"]
        except KeyError as exc:
            raise DecodeError(f"cnot scenario needs 'r0': {exc}") from exc
        sc = CnotScenario(_finite_number(r0, "r0"))
        return cnot_hamiltonian(), sc.initial_joint(tol), sc
    if kind == "custom":
        try:
            h = matrix_from_json(obj["hamiltonian"])
            rho = matrix_from_json(obj["rho_ie0"])
            dims = obj["dims"]
        except (TypeError, KeyError, ValueError) as exc:
            raise DecodeError(f"bad custom scenario: {exc}") from exc
        if not isinstance(dims, list) or len(dims) != 2:
            raise DecodeError(f"dims must be a list [d_i, d_e], got {dims!r}")
        d_i, d_e = (_positive_int(d, "dims") for d in dims)
        if h.shape != (d_i * d_e, d_i * d_e):
            raise DecodeError(f"hamiltonian shape {h.shape} does not match d_i*d_e = {d_i * d_e}")
        require(hermiticity_residual(h), tol, "hamiltonian is not Hermitian", error=DecodeError)
        joint = CompositeState(mat=validate_density(rho, tol=tol), d_i=d_i, d_e=d_e)
        return (h + dag(h)) / 2, joint, None
    raise DecodeError(f"unknown scenario kind {kind!r}")


_encode_leaf = json.JSONEncoder().encode  # compact, so the C encoder


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with each non-finite float written as ``null``
    and without the pure-Python encoder.

    JSON has no NaN or infinity, so ``null`` stands for one.  A matrix's
    ``data`` (equal-width lists of finite floats) fills one cached template.
    What raises TypeError, ValueError or OverflowError here (a non-``str`` key
    or an unknown type) or recurses without end is left to ``json.dumps`` with
    ``allow_nan=False``, which raises on a non-finite float rather than write it.
    """
    try:
        return _encode(obj, 0)
    except (TypeError, ValueError, OverflowError, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False)


def _encode(o: Any, depth: int) -> str:
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else "null"
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
            if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):  # else entry by entry
                return _grid_template(len(o), width, depth) % tuple(map(float.__repr__, flat))
        return _layout([_encode(v, depth + 1) for v in o], depth)
    return _encode_leaf(o)  # None, a bool, an empty container


def _layout(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Encoded items in a container at ``depth``, laid out as ``json.dumps`` does with ``indent=2``."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


@functools.lru_cache(maxsize=64)
def _grid_template(n_rows: int, width: int, depth: int) -> str:
    return _layout([_layout(["%s"] * width, depth + 1)] * n_rows, depth)


def kraus_text(k: KrausSet) -> str:
    """``dumps(kraus_to_json(k))``, byte for byte: one cached template per operator shape, filled with one ``%``."""
    return _fill(_template(k.ops.shape), np.ascontiguousarray(k.ops).view(float).ravel())


def report_text(report: ChannelReport) -> str:
    """``dumps(report_to_json(report))``, byte for byte, from one cached template."""
    return _fill(_template(None), np.array(list(report_to_json(report).values()), dtype=float))


@functools.lru_cache(maxsize=64)
def _template(shape: tuple[int, ...] | None) -> str:
    """``dumps`` of the encoder's document for operators of ``shape`` (None: for a report) as a %-format: a ``%s``
    for each of its floats and ``%%`` for any other ``%``."""
    doc = (report_to_json(ChannelReport(*[0.0] * len(fields(ChannelReport)))) if shape is None
           else kraus_to_json(KrausSet(np.zeros(shape, dtype=complex))))
    holes = json.loads(json.dumps(doc), parse_float=lambda _: "\0")  # each float a string no document holds
    return dumps(holes).replace("%", "%%").replace(encode_basestring_ascii("\0"), "%s")


def _fill(template: str, values: np.ndarray) -> str:
    """``template`` filled with ``values`` as ``dumps`` writes floats: each as its repr (a float's str) or ``null``."""
    filled = values.tolist()
    if not np.isfinite(values).all():
        filled = [v if math.isfinite(v) else "null" for v in filled]
    return template % tuple(filled)


def load(path: str) -> Any:
    """The JSON document in the file at ``path``, read as UTF-8 bytes in one unbuffered read; a BOM is a parse error."""
    with open(path, "rb", buffering=0) as fh:
        return json.loads(fh.read().decode("utf-8"))
