import numpy as np
import pytest
from hypothesis import settings

from krauslab import validate_density

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


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
