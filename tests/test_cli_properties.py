"""The CLI contract as a property over all seven commands, and relations between calls.

Every drawn input, entries near and past the float maximum, subnormals, wrong
shapes, bools and big integers included, gives exit 0, 1 or 2 with no
traceback and no warning (but the CNOT endpoint warning); JSON output is strict; and every exit 1 or 2 names
the check it failed or the input it could not use.  On qubit state files, ``verify`` reads back the Kraus file
that ``kraus --out`` wrote with the same verdict, and an exit 0 at one ``--tol`` stays 0 at every larger one, for
``kraus`` and ``verify`` on qubit files, for ``sweep`` and ``evolve`` on scenario files, and for ``validate``,
``remix`` and ``factor`` on inputs within rounding of each tol.  A qubit state as a Bloch vector and as its matrix
gets the same verdicts, and ``verify`` the same one before and after ``remix`` by a unitary.  A Kraus file with
one entry moved by a few tol fails ``verify`` exactly on the checks its report prints past tol.  On drawn argvs,
exact, abbreviated, ``=``, spoiled or out of order, the CLI's direct reader returns argparse's Namespace or leaves
the argv to argparse.
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
from krauslab import cli
from krauslab.cli import GLOBAL_OPTIONS, KRAUS_METHODS, RESIDUAL_COLUMNS, build_parser, finite, main, tolerance
from krauslab.linalg import bound
from krauslab.serialize import kraus_to_json, matrix_to_json
from krauslab.states import bloch_matrix

from conftest import dump, edge_matrix, random_density, random_hermitian, random_unitary

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


def _checks(report):
    """The four values that a printed report's checks judge: the residuals and the negated output_min_eigenvalue."""
    values = json.loads(report)
    return [values[name] for name in CHECKS[:3]] + [-values["output_min_eigenvalue"]]


@given(r=st.floats(0.0, 1.0), theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi), rhot=qubit_files,
       method=st.sampled_from(list(KRAUS_METHODS)), tol=st.sampled_from(TOLS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_verdict_does_not_depend_on_the_encoding_or_on_a_remix(r, theta, phi, rhot, method, tol, seed):
    """A qubit state written as a Bloch vector and as its matrix gives the same validate, kraus and verify output
    and exit code, and verify exits the same before and after remix of the Kraus file by a random unitary, both on
    the kraus target and on the source state as a (mostly wrong) target, when no check is near the edge of --tol."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        bloch, matrix, b, k0, k1, v, remixed = (os.path.join(tmp, name) for name in (
            "bloch.json", "matrix.json", "b.json", "k0.json", "k1.json", "v.json", "remixed.json"))
        dump({"bloch": {"r": r, "theta": theta, "phi": phi}}, bloch)
        dump({"matrix": matrix_to_json(bloch_matrix(r, theta, phi))}, matrix)
        dump(rhot, b)

        def run(*argv):  # an error names the state file: both encodings by the one name
            code, out, err = _call(["--tol", tol, *argv])
            return code, out, err.replace(matrix, bloch)

        assert run("validate", bloch) == run("validate", matrix)
        made = run("--out", k0, "kraus", bloch, b, "--method", method)
        assert run("--out", k1, "kraus", matrix, b, "--method", method) == made
        event(f"kraus exit {made[0]}")
        if made[0] == 2:  # an input state invalid at this tol: no Kraus file
            return
        assert pathlib.Path(k0).read_bytes() == pathlib.Path(k1).read_bytes()
        for target in (b, bloch):
            assert run("verify", k0, bloch, target) == run("verify", k0, matrix, target)
        n = len(json.loads(pathlib.Path(k0).read_text())["ops"])
        dump(matrix_to_json(random_unitary(rng, n + int(rng.integers(0, 3)))), v)
        assert run("--out", remixed, "remix", k0, v)[0] == 0
        for target in (b, bloch):
            before, after = run("verify", k0, bloch, target), run("verify", remixed, bloch, target)
            if any(1e-13 < value < 1e-6 for value in _checks(before[1])):
                event("a check near the edge of --tol")
                continue
            event(f"verify exit {before[0]}")
            assert after[0] == before[0], (before, after)


@given(rho0=qubit_files, rhot=qubit_files, tol=st.sampled_from([1e-14, 1e-12, 1e-10]), k=st.floats(0.25, 4.0),
       sign=st.sampled_from([-1, 1]))
@settings(max_examples=200, deadline=None)
def test_a_kraus_file_moved_by_k_tol_fails_exactly_the_checks_past_tol(rho0, rhot, tol, k, sign):
    """The largest entry of a kraus --out file, moved by k tol along its phase or against it (k from 1/4 to 4):
    verify at tol exits 1 exactly when a check of its printed report exceeds tol + bound(0, 2), and then names each
    such check, in report order, with its value and the tol; an exit 0 prints nothing on stderr.  The largest entry
    (of modulus 1/2 or more) moves the completeness residual by k tol or more, up to rounding, so that the draws
    fall on both sides of the edge: about half of them exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b, kfile = (os.path.join(tmp, name) for name in ("a.json", "b.json", "k.json"))
        dump(rho0, a)
        dump(rhot, b)
        assert _call(["--out", kfile, "kraus", a, b])[0] == 0
        doc = json.loads(pathlib.Path(kfile).read_text())
        entries = [entry for op in doc["ops"] for entry in op["data"]]
        entry = max(entries, key=lambda entry: abs(complex(*entry)))
        step = sign * k * tol * complex(*entry) / abs(complex(*entry))
        entry[0] += step.real
        entry[1] += step.imag
        dump(doc, kfile)
        code, report, stderr = _call(["--tol", str(tol), "verify", kfile, a, b])
    event(f"verify exit {code}")
    failed = [(name, value) for name, value in zip(CHECKS[:4], _checks(report)) if value > tol + bound(0, 2)]
    assert code == (1 if failed else 0), (report, stderr)
    assert stderr == "".join(f"verify: {name} {value:.3e} > tol {tol:.3e}\n" for name, value in failed)


@st.composite
def scenario_files(draw):
    """A scenario file: CNOT with r0 in [0, 1] or up to 1e-10 outside it, where the joint state's negative entry
    makes sweep and evolve exit 2 at small --tol, as the same joint state in a custom file does; or custom with
    d_i = 2, d_e = 2 or 3, a random Hermitian H and a joint state that is random or exact (dyadic on the
    diagonal), so that it passes at --tol 0."""
    if draw(st.booleans()):
        return {"scenario": "cnot", "r0": draw(st.one_of(st.floats(0.0, 1.0), st.floats(-1e-10, 0.0),
                                                        st.floats(1.0, 1.0 + 1e-10)))}
    d = 2 * draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density(rng, d=d).mat if draw(st.booleans()) else np.diag(rng.multinomial(64, np.full(d, 1 / d)) / 64)
    return {"scenario": "custom", "hamiltonian": matrix_to_json(random_hermitian(rng, d)),
            "rho_ie0": matrix_to_json(rho), "dims": [2, d // 2]}


#: The one line of each check that ``sweep`` or ``evolve`` fails: its column, or its residual, and for ``sweep`` the
#: time of the worst row.
FAILED_CHECK = {
    "sweep": re.compile(rf"sweep: ({'|'.join(RESIDUAL_COLUMNS)}) \S+ > tol \S+, worst at t = \S+"),
    "evolve": re.compile(r"evolve: decomposition_residual \S+ > tol \S+"),
}


#: End times: short, and long enough that the rounding of t * lambda in the phases misses the bounds at small --tol.
end_times = st.one_of(st.floats(0.1, 10.0), st.floats(10.0, 1e5))


@given(scenario=scenario_files(), command=st.sampled_from(list(FAILED_CHECK)), t=end_times, steps=st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_sweep_and_evolve_exit_0_at_a_tol_stays_0_at_every_larger_tol(scenario, command, t, steps):
    """A verdict only loosens with --tol: sweep over [0, t] and evolve at t exit 0 at every tol above one where
    they exit 0, and each exit 1 names every check it fails (for sweep, where on the grid it is worst)."""
    options = ["--t-start", "0", "--t-end", repr(t), "--steps", str(steps)] if command == "sweep" else ["--t", repr(t)]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "r0 = .* is at an endpoint", UserWarning)
        path = os.path.join(tmp, "scenario.json")
        dump(scenario, path)
        calls = [_call(["--tol", tol, command, path, *options]) for tol in TOLS]
    codes = tuple(code for code, _, _ in calls)
    event(f"{command} exits {codes}")
    assert 0 not in codes or set(codes[codes.index(0):]) == {0}, codes
    for code, _, err in calls:
        assert code in (0, 1, 2), err
        if code == 1:
            assert all(FAILED_CHECK[command].fullmatch(line) for line in err.splitlines()), err


def _files_near_the_edge(tmp, command, rng, scale):
    """The file arguments of ``command`` with inputs ``scale`` from exact, where --tol decides the verdict: a state
    pushed to the edge of ``scale``, a unitary remix matrix off by ``scale``, or a product unitary off by ``scale``
    (one in four not a product at all)."""
    noise = rng.normal(size=(4, 4, 2)) @ np.array([1, 1j])
    if command == "validate":
        d = int(rng.integers(2, 4))
        docs = [{"matrix": matrix_to_json(edge_matrix(rng, d, scale, rng.choice([-1, 1])))}]
    elif command == "remix":
        k = general_qubit_kraus(random_density(rng), random_density(rng))
        n = int(rng.integers(2, 5))
        v = random_unitary(rng, n) + scale * noise[:n, :n] / np.abs(noise[:n, :n]).max()
        docs = [kraus_to_json(k), matrix_to_json(v)]
    else:
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2)) if rng.random() < 0.75 else random_unitary(rng, 4)
        docs = [matrix_to_json(u + scale * noise / np.abs(noise).max())]
    paths = [os.path.join(tmp, f"in{i}.json") for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        dump(doc, path)
    return paths + (["--dims", "2", "2"] if command == "factor" else [])


@given(command=st.sampled_from(["validate", "remix", "factor"]), seed=st.integers(0, 2**32 - 1),
       scale=st.one_of(st.just(0.0), st.floats(-17.0, -9.0).map(lambda e: 10.0**e)))
@settings(max_examples=150, deadline=None)
def test_validate_remix_and_factor_exit_0_at_a_tol_stays_0_at_every_larger_tol(command, seed, scale):
    """A verdict only loosens with --tol: validate, remix and factor exit 0 at every tol above one where they
    exit 0, on inputs within rounding of each tol."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        args = _files_near_the_edge(tmp, command, rng, scale)
        codes = tuple(_call(["--tol", tol, command, *args])[0] for tol in TOLS)
    event(f"{command} exits {codes}")
    assert set(codes) <= {0, 1, 2}, codes
    assert 0 not in codes or set(codes[codes.index(0):]) == {0}, codes


#: Option values: valid for the option (first) and rejected by it (second), per type.  Valid values include the
#: empty string, a command name, and values with a space before their "-", which argparse reads as values.
GOOD_VALUES = {
    tolerance: ["0", "1e-12", "1e-6", "3", " 2", "0.0"],
    finite: ["0", "1.5", "7.853981633974483", "1e-300", " -1", "1e308"],
    int: ["2", "3", "0", "100", " 5", "1_0"],
    None: ["a.json", "x", "", "validate", "a b", "x=1", " -x"],
}
BAD_VALUES = {
    tolerance: ["-1", "-0", "nan", "inf", "1e400", "x", ""],
    finite: ["-1", "-1e-3", "nan", "-inf", "inf", "1.8e308", "x", ""],
    int: ["-1", "2.5", "x", "", "1e3"],
    None: ["-x", "--", "-", "-1", "--tol"],
}


@st.composite
def option_values(draw, keywords):
    """(value, valid) for an option with ``keywords``, or for a positional when they are empty."""
    if "choices" in keywords:
        good, bad = keywords["choices"], ["zz", "General", "-general", ""]
    else:
        good, bad = GOOD_VALUES[keywords.get("type")], BAD_VALUES[keywords.get("type")]
    valid = draw(st.sampled_from([True, True, True, False]))
    return draw(st.sampled_from(good if valid else bad)), valid


def _abbreviate(argv, i, draw):
    if argv[i].startswith("--"):
        argv[i] = argv[i][:draw(st.integers(2, len(argv[i]) - 1))] if len(argv[i]) > 3 else argv[i] + "x"


def _join_value(argv, i, draw):
    if argv[i].startswith("--"):
        argv[i:i + 2] = ["=".join(argv[i:i + 2])]


def _repeat(argv, i, draw):
    argv[i:i] = argv[i:i + 2] if argv[i].startswith("--") else argv[i:i + 1]


def _insert(argv, i, draw):
    argv.insert(i, draw(st.sampled_from(["--", "-h", "--help", "-", "bogus", "x", "-1"])))


def _swap(argv, i, draw):
    argv[i:i + 2] = argv[i:i + 2][::-1]


def _global_after_command(argv, i, draw):
    if argv[0] in GLOBAL_OPTIONS:
        argv[len(argv):] = argv[:2]
        del argv[:2]


#: Ways to spoil an argv at a drawn token index: an abbreviated or ``=`` option, a repeated, dropped, stray or
#: swapped token, ``--``, ``-h``/``--help``, or a global option moved after the command.
MUTATIONS = [_abbreviate, _join_value, _repeat, lambda argv, i, draw: argv.pop(i), _insert, _swap,
             _global_after_command]


@st.composite
def argvs(draw):
    """(argv, canonical): an argv built from the grammar, with spoiled values, a required option left out now and
    then, and up to three mutations; ``canonical`` is True when none of these was drawn."""
    name = draw(st.sampled_from([*cli.COMMANDS, "bogus", "val"]))
    command = cli.COMMANDS.get(name, cli.Command(None, "", ("x",), {}))
    canonical = name in cli.COMMANDS
    head = []
    for flag in draw(st.permutations(list(GLOBAL_OPTIONS))):
        if draw(st.booleans()):
            value, valid = draw(option_values(GLOBAL_OPTIONS[flag]))
            head += [flag, value]
            canonical &= valid
    items = []
    for dest in command.positionals:
        value, valid = draw(option_values({}))
        items.append([value])
        canonical &= valid
    for flag, keywords in command.options.items():
        if draw(st.sampled_from([True] * 7 + [False]) if keywords.get("required") else st.booleans()):
            drawn = [draw(option_values(keywords)) for _ in range(keywords.get("nargs") or 1)]
            items.append([flag, *(value for value, _ in drawn)])
            canonical &= all(valid for _, valid in drawn)
        else:
            canonical &= not keywords.get("required")
    argv = [*head, name, *(token for item in draw(st.permutations(items)) for token in item)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        before = list(argv)
        if argv:
            draw(st.sampled_from(MUTATIONS))(argv, draw(st.integers(0, len(argv) - 1)), draw)
        canonical &= argv == before
    return argv, canonical


@given(case=argvs())
@settings(max_examples=2000, deadline=None)
def test_the_direct_reader_reads_what_argparse_reads(case):
    """For every argv the direct reader accepts, its Namespace equals argparse's; every argv argparse rejects (or
    answers with help) it leaves to argparse; and every canonical argv it reads itself."""
    argv, canonical = case
    read = cli._read(list(argv))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            expected = vars(build_parser().parse_args(argv))
        except SystemExit:
            expected = None
    event(f"argparse {'accepts' if expected else 'exits'}, reader {'accepts' if read else 'declines'}")
    if read is not None:
        assert vars(read) == expected, argv
    if canonical:
        assert read is not None, argv
