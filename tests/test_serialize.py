import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from krauslab import KrausSet, general_qubit_kraus, kron, pauli_x, pauli_z, validate_density, verify_channel
from krauslab.kraus import ChannelReport
from krauslab.linalg import norm_max
from krauslab import serialize
from krauslab.serialize import (
    DecodeError,
    dumps,
    kraus_from_json,
    kraus_text,
    kraus_to_json,
    matrix_from_json,
    matrix_to_json,
    report_text,
    report_to_json,
    scenario_from_json,
    state_from_json,
)
from krauslab.states import StateValidationError, bloch_matrix

from conftest import dump, random_density, strict_loads


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
        back = state_from_json({"matrix": matrix_to_json(rho.mat)})
        assert norm_max(back.mat - rho.mat) == 0

    def test_bloch_form(self):
        rho = state_from_json({"bloch": {"r": 0.5, "theta": 1.0, "phi": 2.0}})
        assert norm_max(rho.mat - bloch_matrix(0.5, 1.0, 2.0)) <= 1e-15

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

    def test_declared_dims_must_match_the_operators(self):
        doc = {"d_in": 3, "d_out": 3, "ops": [matrix_to_json(np.eye(2))]}
        with pytest.raises(DecodeError, match=r"operator shape \(2, 2\) does not match \(3, 3\)"):
            kraus_from_json(doc)


class TestScenarioEncoding:
    def test_cnot(self):
        h, joint, _ = scenario_from_json({"scenario": "cnot", "r0": 0.5})
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
        h, joint, _ = scenario_from_json(obj)
        assert norm_max(h - kron(pauli_x, pauli_z)) == 0
        assert norm_max(joint.mat.mat - rho.mat) == 0

    def test_unknown_kind(self):
        with pytest.raises(DecodeError, match="unknown scenario"):
            scenario_from_json({"scenario": "ising"})


def test_file_round_trip(tmp_path, rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    path = str(tmp_path / "m.json")
    dump(matrix_to_json(m), path)
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
        back, _, _ = scenario_from_json(self._scenario(h), tol=1e-5)
        assert norm_max(back - back.conj().T) == 0
        assert norm_max(back - h) <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (8, 8)])
    def test_wrong_shape(self, shape):
        with pytest.raises(DecodeError, match="shape"):
            scenario_from_json(self._scenario(np.zeros(shape)))

    def test_dims_must_be_positive(self):
        with pytest.raises(DecodeError, match="dims"):
            scenario_from_json(self._scenario(np.eye(4), dims=(-2, -2)))


# -- every size field is a positive integral number -----------------------------

NOT_COUNTS = [2.5, "2", True, [2], 0, -1, None, float("inf")]


def _size_docs(value):
    """(field, decoder, document) with one size field set to ``value``."""
    matrix = matrix_to_json(np.eye(2))
    kraus = {"d_in": 2, "d_out": 2, "ops": [matrix]}
    scenario = {"scenario": "custom", "hamiltonian": matrix, "rho_ie0": matrix_to_json(np.eye(2) / 2)}
    return [
        ("rows", matrix_from_json, {**matrix, "rows": value}),
        ("cols", matrix_from_json, {**matrix, "cols": value}),
        ("d_in", kraus_from_json, {**kraus, "d_in": value}),
        ("d_out", kraus_from_json, {**kraus, "d_out": value}),
        ("dims", scenario_from_json, {**scenario, "dims": [1, value]}),
    ]


@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
def test_size_fields_reject_what_is_not_a_positive_integer(value):
    for name, decode, doc in _size_docs(value):
        with pytest.raises(DecodeError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
            decode(doc)


def test_size_fields_accept_integral_floats():
    for _, decode, doc in _size_docs(2.0):
        decode(doc)


# -- every real-valued field is a finite int or float ----------------------------

NOT_NUMBERS = ["0.5", True, False, None, float("nan"), float("inf"), -float("inf"), [0.5], {"r": 0.5}, 10**400]


def _real_docs(value):
    """(name in the message, decoder, document) with one real-valued field set to ``value``."""
    bloch = {"r": 0.5, "theta": 1.0, "phi": 2.0}
    return [
        ("Bloch radius r", state_from_json, {"bloch": {**bloch, "r": value}}),
        ("theta", state_from_json, {"bloch": {**bloch, "theta": value}}),
        ("phi", state_from_json, {"bloch": {**bloch, "phi": value}}),
        ("r0", scenario_from_json, {"scenario": "cnot", "r0": value}),
    ]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=lambda v: repr(v)[:12])
def test_real_fields_reject_what_is_not_a_finite_number(value):
    for name, decode, doc in _real_docs(value):
        with pytest.raises(DecodeError, match=f"^{name} must be a finite number, got {re.escape(repr(value))}$"):
            decode(doc)


def test_real_fields_accept_ints():
    as_ints = state_from_json({"bloch": {"r": 1, "theta": 0, "phi": 0}})
    assert as_ints.mat.tobytes() == state_from_json({"bloch": {"r": 1.0, "theta": 0.0, "phi": 0.0}}).mat.tobytes()
    with pytest.warns(UserWarning, match="endpoint"):
        assert scenario_from_json({"scenario": "cnot", "r0": 1})[2].r0 == 1.0


@pytest.mark.parametrize("dims", ["22", [2], [2, 1, 1], {"d_i": 2}])
def test_dims_must_be_a_pair(dims):
    doc = {"scenario": "custom", "hamiltonian": matrix_to_json(np.eye(2)), "rho_ie0": matrix_to_json(np.eye(2) / 2)}
    with pytest.raises(DecodeError, match="dims must be a list"):
        scenario_from_json({**doc, "dims": dims})


# -- dumps writes the bytes of json.dumps(obj, indent=2) ----------------------

EDGE_FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
finite_floats = st.one_of(st.sampled_from([-0.0, 1e-300, 5e-324, 1e300]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


@st.composite
def kraus_sets(draw):
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 16))
    parts = draw(st.lists(finite_floats, min_size=2 * n * d * d, max_size=2 * n * d * d))
    return KrausSet(np.array(parts).view(complex).reshape(n, d, d))


reports = st.builds(ChannelReport, *[floats.map(np.float64)] * 4)
keys = st.one_of(st.sampled_from(["data", "rows", "", 'a "quoted" key', "unicod\u00e9 \u2603", "\\n"]), st.text())
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    floats,
    floats.map(np.float64),
    st.text(),
)
json_docs = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
        # matrix-like and ragged `data`, empty rows and lists included
        st.lists(st.lists(floats, max_size=3), max_size=4),
        st.dictionaries(st.just("data"), st.lists(st.lists(children, min_size=2, max_size=2), max_size=3)),
    ),
    max_leaves=20,
)


@given(
    st.one_of(
        complex_matrices().map(matrix_to_json),
        kraus_sets().map(kraus_to_json),
        reports.map(report_to_json),
        json_docs,
    )
)
@example({"data": [[np.float64(-0.0), [None, []]]]})  # a grid row holding a list: numpy's sum raises ValueError
@example({"data": [[False, -np.inf], [False, np.float64(np.inf)]]})  # numpy's -inf + inf warns
@settings(max_examples=400, deadline=None)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    """The bytes of json.dumps(obj, indent=2) with each non-finite float replaced by None:
    a document with no token that JSON lacks."""
    text = dumps(obj)
    assert text == json.dumps(_nulled(obj), indent=2)
    strict_loads(text)


def _nulled(obj):
    """``obj`` with each non-finite float replaced by None, in containers as in leaves."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        {"data": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]},  # ragged, as many entries as a 3x2 grid
        {"data": [[], []]},
        {"data": [[1.0, 2.0], (3.0, 4.0)]},
        {"data": [[1.0, 2.0], {3.0: "a", 4.0: "b"}]},  # a row of float keys is no grid row
        {"data": [[1.0, 2], [3.0, True]]},
        {"data": [[1e308, 1e308]]},  # finite, though the sum overflows
        [[[1.0]], [[2.0]]],
        {1: "one", 2.5: [1.0]},  # non-str keys
        {"a": {None: True, False: -0.0}},
        [{"x": 1}, {3: 4}],
    ],
)
def test_dumps_edge_documents_as_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_grid_of_huge_ints_as_json_dumps():
    """A grid entry too large for a float overflows the grid's finiteness sum; the document is still written."""
    obj = {"data": [[10**400, 0], [1, -(10**400)]]}
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{"a": object()}, [np.int64(3)], {"data": [[1.0, np.float32(2.0)]]}, {(1, 2): 3}])
def test_dumps_unknown_type_raises_as_json_dumps(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


def test_dumps_cycle_raises_as_json_dumps():
    doc = {"ops": []}
    doc["ops"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(doc)


# -- a single Kraus set round-trips; a stack has no document ------------------

@given(kraus_sets())
@settings(max_examples=100, deadline=None)
def test_kraus_set_survives_dumps_and_loads(k):
    back = kraus_from_json(json.loads(dumps(kraus_to_json(k))))
    assert (back.d_in, back.d_out) == (k.d_in, k.d_out)
    assert np.array_equal(back.ops, k.ops)


def test_stacked_kraus_set_and_report_raise(rng):
    """A stack has no document: the encoders and the texts raise the same ValueError, which gives the stack shape."""
    stack0, stackt = (validate_density(np.stack([random_density(rng).mat for _ in range(3)])) for _ in range(2))
    k = general_qubit_kraus(stack0, stackt)
    report = verify_channel(k, stack0, stackt)
    for encode, text, obj in ((kraus_to_json, kraus_text, k), (report_to_json, report_text, report)):
        with pytest.raises(ValueError, match=r"stack shape \(3,\)") as expected:
            encode(obj)
        with pytest.raises(ValueError) as got:
            text(obj)
        assert str(got.value) == str(expected.value)


# -- the CLI's texts are dumps of the encoders' documents ----------------------

@st.composite
def any_kraus_sets(draw):
    """A Kraus set of 1 to 16 operators of any shape up to 4x4, with edge and non-finite entries, whose ``ops``
    is contiguous, a transposed view or a strided view."""
    n, d_out, d_in = draw(st.integers(1, 16)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(floats, min_size=2 * n * d_out * d_in, max_size=2 * n * d_out * d_in))
    ops = np.array(parts).view(complex).reshape(n, d_out, d_in)
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if layout == "transposed":  # each operator stored column-major
        ops = np.ascontiguousarray(ops.transpose(0, 2, 1)).transpose(0, 2, 1)
    elif layout == "strided":  # every other entry of a wider array
        ops = np.repeat(ops, 2, axis=-1)[..., ::2]
    return KrausSet(ops)


@given(any_kraus_sets(), reports)
@example(KrausSet((np.arange(8.0) - 1j).reshape(2, 2, 2).transpose(0, 2, 1)), ChannelReport(*[np.float64(np.nan)] * 4))
@settings(max_examples=300, deadline=None)
def test_kraus_and_report_texts_are_dumps_byte_for_byte(k, report):
    event(f"contiguous ops: {k.ops.flags.c_contiguous}")
    assert kraus_text(k) == dumps(kraus_to_json(k))
    assert report_text(report) == dumps(report_to_json(report))


def test_templates_are_built_on_first_use_not_at_import():
    code = "import krauslab.cli, krauslab.serialize as s; assert s._template.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
