"""JSON decoders for matrices, states, Kraus sets and scenarios, and one writer for indented documents.

Matrix encoding: {"rows": n, "cols": m, "data": [[re, im], ...]} with the
data row-major.  Decimal round-trip is good to full double precision.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from dataclasses import fields
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


def scenario_from_json(obj: Any, tol: float = EPS) -> tuple[np.ndarray, CompositeState, CnotScenario | None]:
    """Decode a scenario document into (hamiltonian, initial joint state, CnotScenario or None).

    Two forms: {"scenario": "cnot", "r0": x} or
    {"scenario": "custom", "hamiltonian": <matrix>, "rho_ie0": <matrix>,
    "dims": [d_i, d_e]}; a custom scenario has no CnotScenario.  The joint state of
    either form is validated at ``tol``.  A custom Hamiltonian must be Hermitian
    within ``tol`` and its Hermitian part, which is returned, finite: an entry above
    half the largest float may overflow it.
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
        h = (h + dag(h)) / 2
        if not np.isfinite(h).all():
            raise DecodeError("hamiltonian's Hermitian part (H + H^dagger) / 2 is not finite: an entry overflows")
        joint = CompositeState(mat=validate_density(rho, tol=tol), d_i=d_i, d_e=d_e)
        return h, joint, None
    raise DecodeError(f"unknown scenario kind {kind!r}")


def text(doc: dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2)`` of a flat document, byte for byte, with each non-finite float written as ``null``
    (JSON has no NaN or infinity), from one cached template per key.

    Each value is a float, a complex array written as ``matrix_to_json`` writes it (a matrix, or an (n, r, c) stack
    as a list of n matrices) or a literal (an int or a bool).
    """
    key, values = [], []
    for name, value in doc.items():
        if isinstance(value, np.ndarray):
            key.append((name, value.shape))
            values += np.ascontiguousarray(value, dtype=complex).view(float).ravel().tolist()
        elif isinstance(value, float):
            key.append((name, None))
            values.append(float(value))
        else:
            key.append((name, json.dumps(value)))
    return _fill(_template(tuple(key)), values)


def rows_text(names: tuple[str, ...], table: np.ndarray) -> str:
    """``text`` of the list of documents ``dict(zip(names, row))``, one per row of the float ``table``: the template
    of one row, indented one level and repeated."""
    row = _template(tuple((name, None) for name in names)).replace("\n", "\n  ")
    return _fill("[\n  " + ",\n  ".join([row] * len(table)) + "\n]" if len(table) else "[]", table.ravel().tolist())


def kraus_text(k: KrausSet) -> str:
    """``text`` of the Kraus document ``{"d_in": d_in, "d_out": d_out, "ops": ops}`` of a single set."""
    if k.ops.ndim > 3:
        raise ValueError(f"cannot encode a stack of Kraus sets (stack shape {k.ops.shape[1:-2]}); encode each set")
    key = (("d_in", str(k.d_in)), ("d_out", str(k.d_out)), ("ops", k.ops.shape))  # an int's str is its JSON text
    return _fill(_template(key), np.ascontiguousarray(k.ops).view(float).ravel().tolist())


#: The key of a report's document: each field of ChannelReport, a float.
_REPORT_KEY = tuple((f.name, None) for f in fields(ChannelReport))


def report_text(report: ChannelReport) -> str:
    """``text`` of a single report's document, its fields by name."""
    shape = np.shape(report.completeness_residual)
    if shape:
        raise ValueError(f"cannot encode a stack of reports (stack shape {shape}); encode each set's report")
    return _fill(_template(_REPORT_KEY), [float(getattr(report, name)) for name, _ in _REPORT_KEY])


@functools.lru_cache(maxsize=64)
def _template(key: tuple[tuple[str, Any], ...]) -> str:
    """The standard library's ``json.dumps(..., indent=2)`` of the document ``key`` describes, as a %-format: a
    ``%s`` for each of its floats and ``%%`` for any other ``%``.  ``key`` holds each name with its value's spec:
    an array's shape, a literal's JSON text, or None for a float."""
    doc = {}
    for name, spec in key:
        if spec is None:
            doc[name] = 0.0
        elif isinstance(spec, str):
            doc[name] = json.loads(spec)
        else:
            zeros = np.zeros(spec)
            doc[name] = matrix_to_json(zeros) if zeros.ndim == 2 else [matrix_to_json(m) for m in zeros]
    holes = json.loads(json.dumps(doc), parse_float=lambda _: "\0")  # each float the string "\0", as a value
    return re.sub(r'"\\u0000"(?!:)', "%s", json.dumps(holes, indent=2).replace("%", "%%"))  # a name "\0" stays


def _fill(template: str, values: list[float]) -> str:
    """``template`` filled with ``values`` as ``json.dumps`` writes floats, each as its repr, or as ``null``."""
    if not all(map(math.isfinite, values)):
        values = [v if math.isfinite(v) else "null" for v in values]
    return template % tuple(values)


def load(path: str) -> Any:
    """The JSON document in the file at ``path``, read as UTF-8 bytes in one unbuffered read; a BOM is a parse error."""
    with open(path, "rb", buffering=0) as fh:
        return json.loads(fh.read().decode("utf-8"))
