import numpy as np
import pytest

from krauslab import general_qubit_kraus, kron, pauli_x, pauli_z
from krauslab.linalg import norm_max
from krauslab import serialize
from krauslab.serialize import (
    DecodeError,
    kraus_from_json,
    kraus_to_json,
    matrix_from_json,
    matrix_to_json,
    scenario_from_json,
    state_from_json,
    state_to_json,
)
from krauslab.states import BlochVector, StateValidationError, bloch_to_density

from conftest import random_density


class TestMatrixRoundTrip:
    def test_round_trip(self, rng):
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        assert norm_max(matrix_from_json(matrix_to_json(m)) - m) == 0

    def test_schema(self):
        obj = matrix_to_json(np.array([[1 + 2j]]))
        assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

    def test_bad_length(self):
        with pytest.raises(DecodeError, match="length"):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_missing_key(self):
        with pytest.raises(DecodeError):
            matrix_from_json({"rows": 2})

    @pytest.mark.parametrize(
        "data",
        [[1, 2, 3, 4], [[1, 0, 0]] * 4, [["1", "0"]] * 4, [[1, 0], [0, 0], [0, 0], [1]], "abcd", None],
    )
    def test_data_not_pairs(self, data):
        with pytest.raises(DecodeError, match="matrix"):
            matrix_from_json({"rows": 2, "cols": 2, "data": data})


class TestStateEncoding:
    def test_matrix_form_round_trip(self, rng):
        rho = random_density(rng)
        back = state_from_json(state_to_json(rho))
        assert norm_max(back.mat - rho.mat) == 0

    def test_bloch_form(self):
        b = BlochVector(0.5, 1.0, 2.0)
        rho = state_from_json({"bloch": {"r": 0.5, "theta": 1.0, "phi": 2.0}})
        assert norm_max(rho.mat - bloch_to_density(b).mat) <= 1e-15

    def test_auto_detect_rejects_unknown(self):
        with pytest.raises(DecodeError, match="bloch"):
            state_from_json({"something": 1})

    def test_invalid_state_raises(self):
        bad = matrix_to_json(np.diag([1.5, -0.5]))
        with pytest.raises(StateValidationError):
            state_from_json({"matrix": bad})


class TestKrausEncoding:
    def test_round_trip(self, rng):
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        back = kraus_from_json(kraus_to_json(k))
        assert back.d_in == k.d_in and back.d_out == k.d_out
        for a, b in zip(back.ops, k.ops):
            assert norm_max(a - b) == 0

    def test_bad_object(self):
        with pytest.raises(DecodeError):
            kraus_from_json({"ops": []})


class TestScenarioEncoding:
    def test_cnot(self):
        h, joint = scenario_from_json({"scenario": "cnot", "r0": 0.5})
        assert h.shape == (4, 4)
        assert joint.d_i == joint.d_e == 2
        assert joint.mat.mat[3, 3] == pytest.approx(0.75)

    def test_custom(self, rng):
        rho = random_density(rng, d=4)
        obj = {
            "scenario": "custom",
            "hamiltonian": matrix_to_json(kron(pauli_x, pauli_z)),
            "rho_ie0": matrix_to_json(rho.mat),
            "dims": [2, 2],
        }
        h, joint = scenario_from_json(obj)
        assert norm_max(h - kron(pauli_x, pauli_z)) == 0
        assert norm_max(joint.mat.mat - rho.mat) == 0

    def test_unknown_kind(self):
        with pytest.raises(DecodeError, match="unknown scenario"):
            scenario_from_json({"scenario": "ising"})


def test_file_round_trip(tmp_path, rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    path = str(tmp_path / "m.json")
    serialize.dump(matrix_to_json(m), path)
    assert norm_max(matrix_from_json(serialize.load(path)) - m) == 0


def _with_entry(obj, value):
    """Copy of a matrix object with its first entry's real part set to ``value``."""
    return {**obj, "data": [[value, 0.0]] + obj["data"][1:]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entry_in_any_matrix_file(rng, value):
    rho = random_density(rng)
    m = _with_entry(matrix_to_json(rho.mat), value)
    k = kraus_to_json(general_qubit_kraus(rho, rho))
    k["ops"][1] = _with_entry(k["ops"][1], value)
    scenario = {
        "scenario": "custom",
        "hamiltonian": _with_entry(matrix_to_json(kron(pauli_x, pauli_z)), value),
        "rho_ie0": matrix_to_json(np.eye(4) / 4),
        "dims": [2, 2],
    }
    decodes = [
        lambda: matrix_from_json(m),  # a unitary file
        lambda: state_from_json({"matrix": m}),
        lambda: kraus_from_json(k),
        lambda: scenario_from_json(scenario),
    ]
    for decode in decodes:
        with pytest.raises(DecodeError, match="non-finite"):
            decode()


class TestTolReachesDecoding:
    def test_matrix_state(self):
        m = {"matrix": matrix_to_json(np.diag([1 + 1e-6, -1e-6]))}
        with pytest.raises(StateValidationError, match="positive"):
            state_from_json(m)
        assert state_from_json(m, tol=1e-5).tol == 1e-5

    def test_bloch_radius_is_bounded_by_positivity(self):
        b = {"bloch": {"r": 1 + 1e-6, "theta": 0.3, "phi": 0.0}}
        with pytest.raises(StateValidationError, match="positive"):
            state_from_json(b)
        assert state_from_json(b, tol=1e-5).dim == 2

    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_bloch_radius_must_be_nonnegative(self, r):
        with pytest.raises(DecodeError, match="radius"):
            state_from_json({"bloch": {"r": r, "theta": 0.3, "phi": 0.0}})

    def test_custom_joint_state(self):
        joint = np.diag([0.5 + 1e-6, -1e-6, 0.0, 0.5])
        obj = {
            "scenario": "custom",
            "hamiltonian": matrix_to_json(kron(pauli_x, pauli_z)),
            "rho_ie0": matrix_to_json(joint),
            "dims": [2, 2],
        }
        with pytest.raises(StateValidationError):
            scenario_from_json(obj)
        assert scenario_from_json(obj, tol=1e-5)[1].mat.tol == 1e-5


class TestCustomHamiltonian:
    def _scenario(self, h, dims=(2, 2)):
        return {
            "scenario": "custom",
            "hamiltonian": matrix_to_json(h),
            "rho_ie0": matrix_to_json(np.eye(4) / 4),
            "dims": list(dims),
        }

    def test_not_hermitian(self):
        h = kron(pauli_x, pauli_z)
        h[0, 1] += 1e-6
        with pytest.raises(DecodeError, match="Hermitian"):
            scenario_from_json(self._scenario(h))
        # Within tol, the Hermitian part is what comes back.
        back, _ = scenario_from_json(self._scenario(h), tol=1e-5)
        assert norm_max(back - back.conj().T) == 0
        assert norm_max(back - h) <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (8, 8)])
    def test_wrong_shape(self, shape):
        with pytest.raises(DecodeError, match="shape"):
            scenario_from_json(self._scenario(np.zeros(shape)))

    def test_dims_must_be_positive(self):
        with pytest.raises(DecodeError, match="dims"):
            scenario_from_json(self._scenario(np.eye(4), dims=(-2, -2)))
