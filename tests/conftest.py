import json
import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from krauslab import bloch_matrix, validate_density
from krauslab.serialize import dumps, matrix_to_json

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failure prints the blob that replays it (@reproduce_failure).  Local runs
# stay randomized under the default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


def random_density(rng, d=2, rank=None):
    """Ginibre-sampled density matrix of the given dimension and rank."""
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real)


def bloch_state(r, theta, phi):
    """The qubit state with Bloch coordinates (r, theta, phi), validated."""
    return validate_density(bloch_matrix(r, theta, phi))


#: Tolerances from exact (0) and below rounding (1e-18) up to loose (1e-6).
edge_tols = st.sampled_from([0.0, 1e-18, 1e-12, 1e-10, 1e-6])


def edge_matrix(rng, d, tol, sign, rank=None):
    """A random state pushed to the edge of ``tol``, not validated.

    Its anti-Hermitian part is off-diagonal with max-norm just under tol/2,
    and it is shifted by sign * tol/d times the identity, so that its trace
    is off by tol.  Callers filter out the matrices that rounding pushes
    past ``tol``.
    """
    m = random_density(rng, d, rank).mat
    m = (m + m.conj().T) / 2  # exactly Hermitian
    for _ in range(3):  # the trace exactly 1 as far as rounding allows
        m[-1, -1] += 1 - m.trace().real
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = g - g.conj().T
    np.fill_diagonal(a, 0)
    return m + 0.49 * tol * a / np.abs(a).max() + sign * tol / d * np.eye(d)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def dump(obj, path):
    """Write ``obj`` to ``path`` as the CLI writes its JSON output."""
    with open(path, "w") as fh:
        fh.write(dumps(obj) + "\n")


def strict_loads(text):
    """``json.loads`` that raises on the non-standard tokens NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def write_state(tmp_path, name, rho):
    """Write the state ``rho`` in the matrix encoding to ``tmp_path / name``; return the path."""
    path = str(tmp_path / name)
    dump({"matrix": matrix_to_json(rho.mat)}, path)
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The (calling function, input shape) of each ``np.linalg.eigvalsh`` call made during the test."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, np.shape(a)))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls
