"""Seeded input generators for the three workloads.

Inputs are built with numpy alone, never with krauslab, so a change to the
program cannot change what it is fed.  The same seed gives byte-identical
arrays and files.  Every mix below is a fixed count per cycle, shuffled by the
seed, so the composition (and with it the cost profile) is the same on every
seed and only the individual states, times and orders differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Qubit state kinds and their shares.  They cover the degenerate branches of
#: the construction: rank-1 states, the maximally mixed state (r = 0), states
#: within 1e-9..1e-6 of pure, and polar states (sin(theta) ~ 0, where phi is
#: a convention).
STATE_MIX = {"full": 8, "pure": 4, "near_pure": 3, "polar": 3, "mixed": 2}

#: Block size -> share of the ``pairs`` ops.  The sizes are far apart, so
#: op_p50_ms falls inside the 16-pair cluster and op_p90_ms inside the
#: 64-pair one: both then follow the program's cost per block rather than the
#: host's scheduling jitter, which decides the tail of a single 0.35 ms pair.
PAIR_BLOCK_MIX = {4: 3, 16: 4, 64: 3}
PAIR_BLOCKS = 60

SWEEP_STEPS = 100


@dataclass(frozen=True)
class CliOp:
    """One in-process ``krauslab`` call and what a correct result looks like.

    ``expect`` is the exit code the README contract demands for this input;
    ``out`` is the file the call writes (deleted before each call), and
    ``rows`` / ``n_ops`` are what that file must hold.
    """

    argv: tuple[str, ...]
    expect: int
    kind: str
    out: str | None = None
    rows: int | None = None
    n_ops: int | None = None
    items: int = 1


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _shuffled_mix(rng: np.random.Generator, mix: dict, n: int) -> list:
    total = sum(mix.values())
    kinds = [k for k, w in mix.items() for _ in range(n * w // total)]
    kinds += [next(iter(mix))] * (n - len(kinds))
    return [kinds[i] for i in rng.permutation(n)]


def _ginibre_state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _bloch_state(r: float, theta: float, phi: float) -> np.ndarray:
    x, y, z = r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi), r * math.cos(theta)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def qubit_state(rng: np.random.Generator, kind: str) -> tuple[np.ndarray, tuple[float, float, float]]:
    """A qubit state of the given kind, as a matrix and as (r, theta, phi)."""
    if kind in ("full", "pure"):
        m = _ginibre_state(rng, 2, 2 if kind == "full" else 1)
        x, y, z = 2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real
        r = min(math.sqrt(x * x + y * y + z * z), 1.0)
        return m, (r, math.acos(max(-1.0, min(1.0, z / r))), math.atan2(y, x) % (2 * math.pi))
    if kind == "mixed":
        return np.eye(2, dtype=complex) / 2, (0.0, 0.0, 0.0)
    phi = float(rng.uniform(0, 2 * math.pi))
    if kind == "near_pure":
        bloch = (1 - 10 ** float(rng.uniform(-9, -6)), float(rng.uniform(0, math.pi)), phi)
    elif kind == "polar":
        delta = float(rng.uniform(0, 1e-12))
        theta = delta if rng.integers(2) == 0 else math.pi - delta
        bloch = (float(rng.uniform(0.05, 1.0)), theta, phi)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return _bloch_state(*bloch), bloch


def pair_inputs(seed: int, n: int = 2048) -> list[tuple[np.ndarray, np.ndarray]]:
    """n (rho0, rhot) matrix pairs; the kinds of both sides follow STATE_MIX."""
    rng = _rng(seed, "pairs")
    kinds0, kinds_t = _shuffled_mix(rng, STATE_MIX, n), _shuffled_mix(rng, STATE_MIX, n)
    return [(qubit_state(rng, a)[0], qubit_state(rng, b)[0]) for a, b in zip(kinds0, kinds_t)]


def pair_blocks(seed: int) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """PAIR_BLOCKS blocks of pairs from ``pair_inputs``, sized by PAIR_BLOCK_MIX
    in a seeded order."""
    sizes = _shuffled_mix(_rng(seed, "pair-blocks"), PAIR_BLOCK_MIX, PAIR_BLOCKS)
    pairs = pair_inputs(seed, sum(sizes))
    ends = np.cumsum(sizes)
    return [pairs[end - size: end] for size, end in zip(sizes, ends)]


# --- JSON documents -------------------------------------------------------


def matrix_doc(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).reshape(-1)],
    }


def _write(files: dict[str, str], name: str, doc) -> str:
    files[name] = json.dumps(doc, indent=2) + "\n"
    return name


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def _scenario(rng: np.random.Generator, kind: str) -> dict:
    """A CNOT scenario with r0 in (0, 1), or a custom d_i = 2 scenario with a
    random Hermitian H and a full-rank (hence correlated) joint state."""
    if kind == "cnot":
        return {"scenario": "cnot", "r0": float(rng.uniform(0.05, 0.95))}
    d_e = {"custom2": 2, "custom3": 3}[kind]
    return {
        "scenario": "custom",
        "hamiltonian": matrix_doc(_hermitian(rng, 2 * d_e)),
        "rho_ie0": matrix_doc(_ginibre_state(rng, 2 * d_e, 2 * d_e)),
        "dims": [2, d_e],
    }


def sweep_inputs(seed: int) -> tuple[list[CliOp], dict[str, str]]:
    """40 sweep calls: 28 CNOT scenarios and 12 custom ones (4 with d_e = 2,
    8 with d_e = 3), each over SWEEP_STEPS points from 0 to a seeded multiple
    of pi/2.  The custom d_e = 3 calls are the slowest; at 20% of the calls
    they put op_p90_ms inside their own cluster, away from a cluster edge."""
    rng = _rng(seed, "sweep")
    files: dict[str, str] = {}
    ops = []
    for i, kind in enumerate(_shuffled_mix(rng, {"cnot": 7, "custom2": 1, "custom3": 2}, 40)):
        scen = _write(files, f"scenario_{i:02d}.json", _scenario(rng, kind))
        t_end = int(rng.integers(1, 9)) * math.pi / 2
        argv = ("--out", "sweep.csv", "sweep", scen, "--t-start", "0", "--t-end", repr(t_end),
                "--steps", str(SWEEP_STEPS))
        ops.append(CliOp(argv, 0, kind, out="sweep.csv", rows=SWEEP_STEPS + 1, items=SWEEP_STEPS))
    return ops, files


def _state_doc(rng: np.random.Generator, kind: str, encoding: str) -> dict:
    """A valid qubit state in the given encoding, "matrix" or "bloch"."""
    m, (r, theta, phi) = qubit_state(rng, kind)
    if encoding == "matrix":
        return {"matrix": matrix_doc(m)}
    return {"bloch": {"r": r, "theta": theta, "phi": phi}}


def _invalid_file(rng: np.random.Generator, kind: str, variant: int) -> tuple[str, str]:
    """The op kind and the text of an invalid state file of the given kind.

    A NaN goes into an off-diagonal entry for variant 0 (op kind
    ``invalid-nan-offdiag``) and a diagonal one for variant 1
    (``invalid-nan-diag``), so both cases are in every cycle in a fixed
    proportion and can be told apart.
    """
    m = _ginibre_state(rng, 2, 2)
    if kind == "invalid-nonpositive":
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m = u @ np.diag([1.1, -0.1]) @ u.conj().T
    elif kind == "invalid-nonhermitian":
        m = m.copy()
        m[0, 1] += 0.1 * (1 + 1j)
    doc = {"matrix": matrix_doc(m)}
    if kind == "invalid-nan":
        entry = (1, 2)[int(rng.integers(2))] if variant == 0 else (0, 3)[int(rng.integers(2))]
        doc["matrix"]["data"][entry][int(rng.integers(2))] = float("nan")
    text = json.dumps(doc, indent=2) + "\n"
    if kind == "invalid-malformed":
        text = text[: int(rng.integers(1, len(text) - 3))]
    if kind == "invalid-nan":
        kind += ("-offdiag", "-diag")[variant]
    return kind, text


INVALID_KINDS = ("invalid-nonpositive", "invalid-nonhermitian", "invalid-malformed", "invalid-nan")


def cli_inputs(seed: int) -> tuple[list[CliOp], dict[str, str]]:
    """One cycle of 168 CLI calls on JSON files, shuffled as whole groups.

    A ``kraus --out`` call is always followed by ``verify`` on the file it
    wrote.  Per cycle: 24 validate; 24 general, 16 closed-form and 8 qubit
    plus 8 qudit (d = 3, 4) measure-prepare kraus/verify groups; 16 evolve
    (12 CNOT, 4 custom); and for each of the four invalid kinds two validate
    and two kraus calls (the invalid file first in one, second in the other),
    which the README contract says must exit 2.  Qubit files follow STATE_MIX
    and are 3:2 matrix:Bloch encoded.
    """
    rng = _rng(seed, "cli_files")
    files: dict[str, str] = {}
    counter = iter(range(10**6))
    n_qubit_files = 24 + 2 * (24 + 16 + 8) + 8
    kinds = iter(_shuffled_mix(rng, STATE_MIX, n_qubit_files))
    encodings = iter(_shuffled_mix(rng, {"matrix": 3, "bloch": 2}, n_qubit_files))

    def qubit_file() -> str:
        doc = _state_doc(rng, next(kinds), next(encodings))
        return _write(files, f"state_{next(counter):03d}.json", doc)

    groups: list[list[CliOp]] = []

    def kraus_group(method: str, a: str, b: str, n_ops: int, kind: str) -> None:
        out = f"kraus_{len(groups):03d}.json"
        groups.append([
            CliOp(("--out", out, "kraus", a, b, "--method", method), 0, kind, out=out, n_ops=n_ops),
            CliOp(("verify", out, a, b), 0, kind),
        ])

    for _ in range(24):
        groups.append([CliOp(("validate", qubit_file()), 0, "validate")])
    for method, count in (("general", 24), ("closed-form", 16), ("measure-prepare", 8)):
        for _ in range(count):
            kraus_group(method, qubit_file(), qubit_file(), 2 if method != "measure-prepare" else 4,
                        f"kraus-{method}")
    for d, rank in ((3, 1), (3, 2), (3, 3), (3, 3), (4, 1), (4, 2), (4, 4), (4, 4)):
        a = _write(files, f"state_{next(counter):03d}.json",
                   {"matrix": matrix_doc(_ginibre_state(rng, d, d))})
        b = _write(files, f"state_{next(counter):03d}.json",
                   {"matrix": matrix_doc(_ginibre_state(rng, d, rank))})
        kraus_group("measure-prepare", a, b, d * d, f"kraus-measure-prepare-d{d}")
    for kind in ["cnot"] * 12 + ["custom2", "custom3"] * 2:
        scen = _write(files, f"scenario_{next(counter):03d}.json", _scenario(rng, kind))
        t = float(rng.uniform(0, 2 * math.pi))
        groups.append([CliOp(("evolve", scen, "--t", repr(t)), 0, f"evolve-{kind}")])
    for kind in INVALID_KINDS:
        for variant in range(2):
            bad = f"state_{next(counter):03d}.json"
            op_kind, files[bad] = _invalid_file(rng, kind, variant)
            groups.append([CliOp(("validate", bad), 2, op_kind)])
        for variant in range(2):
            bad = f"state_{next(counter):03d}.json"
            op_kind, files[bad] = _invalid_file(rng, kind, variant)
            pair = (bad, qubit_file()) if variant == 0 else (qubit_file(), bad)
            groups.append([CliOp(("kraus", *pair), 2, op_kind)])
    return [op for i in rng.permutation(len(groups)) for op in groups[i]], files
