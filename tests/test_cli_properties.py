"""The CLI contract as a property over all seven commands, and relations between calls.

Every drawn input, entries near and past the float maximum, subnormals, wrong
shapes, bools and big integers included, gives exit 0, 1 or 2 with no
traceback and no warning (but the CNOT endpoint warning); JSON output is strict; and every exit 1 or 2 names
the check it failed or the input it could not use.  On qubit state files, ``verify`` reads back the Kraus file
that ``kraus --out`` wrote with the same verdict, and an exit 0 at one ``--tol`` stays 0 at every larger one.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from krauslab import general_qubit_kraus, kron, pauli_x, pauli_z, validate_density
from krauslab.cli import KRAUS_METHODS, RESIDUAL_COLUMNS, main
from krauslab.serialize import matrix_to_json

from conftest import dump, random_density

#: A JSON number past the float maximum: written into the file as the text 1.8e308 (or -1.8e308), which
#: ``json.load`` reads as an infinity.  No encoder writes it, so the drawn document holds these markers.
PAST_MAX = {"<1.8e308>": "1.8e308", "<-1.8e308>": "-1.8e308"}

#: JSON numbers: ordinary, up to the float maximum, past it, subnormal, bools, small and big integers.
numbers = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(list(PAST_MAX)),
    st.floats(-(2.0**-1022), 2.0**-1022),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**64]),
)
#: Size fields: right, or wrong in every way the decoder must name.
sizes = st.one_of(st.integers(-1, 4), st.sampled_from([2.0, 2.5, True, 10**400, "2", None, [2]]))

_PURE = np.array([[1.0, 0.0], [0.0, 0.0]])
_FULL = np.array([[0.75, 0.25 - 0.1j], [0.25 + 0.1j, 0.25]])
#: Valid inputs that the drawn documents start from, so that exits 0 and 1 are drawn as well as exit 2.
STATES = [_FULL, _PURE, np.eye(2) / 2, np.eye(3) / 3]
KRAUS_SETS = [
    general_qubit_kraus(validate_density(_FULL), validate_density(_PURE)).ops,
    np.eye(2)[None],
    np.array([np.eye(3)]),
]
UNITARIES = [np.eye(2), np.eye(4), kron(pauli_x, pauli_z), (np.eye(4) + 1j * kron(pauli_x, pauli_x)) / np.sqrt(2)]
HAMILTONIANS = [kron(pauli_x, pauli_z), np.eye(4), np.diag([1.0, -1.0])]
JOINT_STATES = [np.eye(4) / 4, np.diag([0.5, 0.0, 0.0, 0.5]), np.eye(2) / 2]


@st.composite
def matrix_docs(draw, bases):
    """A matrix document from one of ``bases``, with up to two entries replaced and perhaps one flaw of shape."""
    m = np.asarray(draw(st.sampled_from(bases)), dtype=complex)
    data = m.reshape(-1).view(float).reshape(-1, 2).tolist()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        data[draw(st.integers(0, len(data) - 1))][draw(st.integers(0, 1))] = draw(numbers)
    doc = {"rows": m.shape[0], "cols": m.shape[1], "data": data}
    flaw = draw(st.sampled_from([None] * 6 + ["rows", "cols", "short", "long", "pair", "missing"]))
    if flaw in ("rows", "cols"):
        doc[flaw] = draw(sizes)
    elif flaw == "short":
        data.pop()
    elif flaw == "long":
        data.append([0.0, 0.0])
    elif flaw == "pair":
        data[0] = draw(st.one_of(numbers, st.just(data[0][:1]), st.just(data[0] + [0.0])))
    elif flaw == "missing":
        del doc["data"]
    return doc


state_docs = st.one_of(
    st.fixed_dictionaries({"matrix": matrix_docs(STATES)}),
    st.fixed_dictionaries({"bloch": st.fixed_dictionaries(
        {"r": st.one_of(st.floats(0.0, 1.0), numbers), "theta": numbers, "phi": numbers})}),
)


@st.composite
def kraus_docs(draw):
    """A Kraus-set document from one of ``KRAUS_SETS``; each size field is right at least half the time."""
    ops = draw(st.sampled_from(KRAUS_SETS))
    d_out, d_in = ops.shape[1:]
    return {
        "d_in": draw(st.one_of(st.just(d_in), st.just(d_in), sizes)),
        "d_out": draw(st.one_of(st.just(d_out), st.just(d_out), sizes)),
        "ops": [draw(matrix_docs([op])) for op in ops],
    }


scenario_docs = st.one_of(
    st.fixed_dictionaries({"scenario": st.just("cnot"), "r0": st.one_of(st.floats(0.0, 1.0), numbers)}),
    st.fixed_dictionaries({
        "scenario": st.just("custom"),
        "hamiltonian": matrix_docs(HAMILTONIANS),
        "rho_ie0": matrix_docs(JOINT_STATES),
        "dims": st.one_of(st.just([2, 2]), st.just([1, 2]), st.lists(sizes, min_size=1, max_size=3)),
    }),
)
#: Command-line numbers: finite (drawn twice as often), huge, past the float maximum, or not finite at all.
times = st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(allow_nan=False),
                  st.sampled_from(["1.8e308", "nan"])).map(str)

#: Per command: its file arguments with the documents each takes, and its options.
COMMANDS = {
    "validate": ([state_docs], st.just([])),
    "kraus": ([state_docs, state_docs], st.one_of(st.just([]), st.sampled_from(list(KRAUS_METHODS)).map(
        lambda method: ["--method", method]))),
    "evolve": ([scenario_docs], times.map(lambda t: ["--t", t])),
    "sweep": ([scenario_docs], st.tuples(times, times, st.integers(-1, 5), st.sampled_from(["csv", "json"])).map(
        lambda g: ["--t-start", g[0], "--t-end", g[1], "--steps", str(g[2]), "--format", g[3]])),
    "verify": ([kraus_docs(), state_docs, state_docs], st.just([])),
    "remix": ([kraus_docs(), matrix_docs(UNITARIES)], st.just([])),
    "factor": ([matrix_docs(UNITARIES)], st.one_of(st.sampled_from([(2, 2), (1, 2)]), st.tuples(
        st.integers(0, 3), st.integers(0, 3))).map(lambda dims: ["--dims", *map(str, dims)])),
}

#: What a failed check is called on stderr: the report's four, evolve's, sweep's columns, factor's, and the
#: invariants of a computed state that misses its bound.
CHECKS = ("completeness_residual", "reconstruction_residual", "output_trace_residual", "output_positivity",
          "decomposition_residual", *RESIDUAL_COLUMNS, "product", "not a valid density matrix")
#: What an exit 2 may name other than one of its files: a command-line argument, or an input by its role.
ARGUMENTS = ("argument --", "--method", "steps", "t_start", "t * eigenvalue of H", "states (", "remix matrix",
             "input is not unitary", "unitary shape", "dims must be positive")


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_documents(text):
    """Every JSON document of ``text`` (one or more, separated by whitespace), parsed without NaN or Infinity."""
    decoder, docs, pos = json.JSONDecoder(parse_constant=_reject), [], 0
    while (pos := len(text) - len(text[pos:].lstrip())) < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


def _write(path, doc):
    text = json.dumps(doc)
    for marker, number in PAST_MAX.items():
        text = text.replace(json.dumps(marker), number)
    with open(path, "w") as fh:
        fh.write(text)


@given(
    data=st.data(),
    command=st.sampled_from(list(COMMANDS)),
    tol=st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-12"], ["--tol", "1e-6"]]),
    out=st.booleans(),
)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_exits_0_1_or_2_and_names_its_failure(data, command, tol, out):
    doc_strategies, options = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"in{i}.json") for i in range(len(doc_strategies))]
        for path, docs in zip(paths, doc_strategies):
            _write(path, data.draw(docs))
        out_path = os.path.join(tmp, "out.txt")
        argv = [*tol, *(["--out", out_path] if out else []), command, *paths, *data.draw(options)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit 2, with its usage line
                code = exc.code
        out_text = pathlib.Path(out_path).read_text() if os.path.exists(out_path) else ""
    stdout, stderr = stdout.getvalue(), stderr.getvalue()

    event(f"{command} exit {code}")  # the mix of outcomes, shown by --hypothesis-show-statistics
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    # the one warning by design: a CNOT scenario's r0 at an endpoint of [0, 1] (see CnotScenario)
    assert all(w.category is UserWarning and "is at an endpoint" in str(w.message) for w in caught), caught
    assert "Warning" not in stderr, stderr
    if "csv" not in argv:  # sweep's CSV table is the one output that is not JSON
        _strict_documents(stdout + out_text)
    if code == 0:
        assert stderr == ""
    elif code == 1:  # one line per failed check, each naming its command and its check
        lines = stderr.splitlines()
        assert lines and all(line.startswith(f"{command}: ") and any(c in line for c in CHECKS) for line in lines)
    elif command == "validate" and not stderr:  # an invalid state: its violated invariants
        assert _strict_documents(stdout)[0]["violations"]
    else:  # one error line that names a file or a command-line argument
        message = stderr.splitlines()[-1]
        assert re.search(r"\berror: ", message), stderr
        assert any(name in message for name in (*paths, *ARGUMENTS)), stderr


#: Qubit state files in both encodings: a random state of rank 1 or 2, or a Bloch vector anywhere in the ball.
qubit_files = st.one_of(
    st.builds(lambda seed, rank: {"matrix": matrix_to_json(random_density(np.random.default_rng(seed), rank=rank).mat)},
              st.integers(0, 2**32 - 1), st.integers(1, 2)),
    st.builds(lambda r, theta, phi: {"bloch": {"r": r, "theta": theta, "phi": phi}},
              st.floats(0.0, 1.0), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)),
)
#: --tol values in increasing order, from exact to the default.
TOLS = ["0", "1e-16", "1e-14", "1e-12", "1e-10"]


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _kraus_then_verify(tmp, rho0, rhot, method, tol):
    """The calls ``kraus --out k.json a b`` and then ``verify k.json a b`` at ``tol``, in the directory ``tmp``."""
    a, b, k = (os.path.join(tmp, name) for name in ("a.json", "b.json", f"k{tol}.json"))
    dump(rho0, a)
    dump(rhot, b)
    return _call(["--tol", tol, "--out", k, "kraus", a, b, "--method", method]), _call(["--tol", tol, "verify", k, a, b])


@given(rho0=qubit_files, rhot=qubit_files, method=st.sampled_from(list(KRAUS_METHODS)), tol=st.sampled_from(TOLS))
@settings(max_examples=200, deadline=None)
def test_verify_reads_back_the_kraus_file_with_the_same_report(rho0, rhot, method, tol):
    """The Kraus file round-trips bit for bit: verify prints the report kraus printed, with the same exit code
    and the same failed checks; where kraus rejects an input state, so does verify."""
    with tempfile.TemporaryDirectory() as tmp:
        (made, report, failed), (code, checked, checked_failed) = _kraus_then_verify(tmp, rho0, rhot, method, tol)
    event(f"kraus exit {made}")
    assert (code, checked) == (made, report)
    if made != 2:
        assert checked_failed == failed.replace("kraus: ", "verify: ")


@given(rho0=qubit_files, rhot=qubit_files, method=st.sampled_from(list(KRAUS_METHODS)))
@settings(max_examples=100, deadline=None)
def test_exit_0_at_a_tol_stays_0_at_every_larger_tol(rho0, rhot, method):
    """A verdict only loosens with --tol: kraus and verify exit 0 at every tol above one where they exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        calls = [_kraus_then_verify(tmp, rho0, rhot, method, tol) for tol in TOLS]
    for command, codes in zip(("kraus", "verify"), zip(*((made[0], checked[0]) for made, checked in calls))):
        event(f"{command} exits {codes}")
        assert 0 not in codes or set(codes[codes.index(0):]) == {0}, codes
