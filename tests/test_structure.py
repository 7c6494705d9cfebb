"""Structural fences over the source of the package, read as Python syntax trees rather than as text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "krauslab"

#: The steps that may call ``states._derived_state``, the unvalidated constructor: the states that
#: ``dynamics`` derives from a validated one by a partial trace or by a checked propagator.
DERIVED_STATE_STEPS = {
    ("dynamics.py", "CompositeState.reduced_system"),
    ("dynamics.py", "CompositeState.reduced_environment"),
    ("dynamics.py", "reduced_dynamics"),
}

#: The one step that may build a DensityMatrix past its validation, with ``__new__``.
NEW_STEPS = {("states.py", "_derived_state")}


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _scoped(tree: ast.AST, scope: str = ""):
    """(qualified name of the enclosing function or class, node) for every node under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield scope, child
        yield from _scoped(child, inner)


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unvalidated_state_uses(sources: dict[str, str]) -> tuple[set, list]:
    """``(calls, faults)``: the (file, step) of every call of ``_derived_state``, and each use of it or of
    ``__new__`` outside the steps allowed it, as (file, step, line, what).

    A use is a fault when it is not a direct call from a step of DERIVED_STATE_STEPS: a call from elsewhere,
    the name taken as a value (an alias that a later call would hide behind) or imported under another name.
    Any ``__new__`` outside ``_derived_state`` is a fault too, since it builds a state that skips validation.
    """
    calls, faults = set(), []
    for file, text in sources.items():
        nodes = list(_scoped(ast.parse(text)))
        called = {id(node.func) for _, node in nodes if isinstance(node, ast.Call)}
        for scope, node in nodes:
            if isinstance(node, ast.alias) and node.name == "_derived_state" and node.asname:
                faults.append((file, scope, node.lineno, f"imported as {node.asname}"))
            elif _name(node) == "__new__" and (file, scope) not in NEW_STEPS:
                faults.append((file, scope, node.lineno, "__new__"))
            elif _name(node) == "_derived_state":
                if id(node) not in called:
                    faults.append((file, scope, node.lineno, "taken as a value"))
                elif (file, scope) not in DERIVED_STATE_STEPS:
                    faults.append((file, scope, node.lineno, "called"))
                else:
                    calls.add((file, scope))
    return calls, faults


def test_unvalidated_states_are_built_only_by_the_derived_state_steps():
    """Every state that is not validated is one that dynamics derives, and each derived-state step builds one."""
    calls, faults = unvalidated_state_uses(_sources())
    assert faults == []
    assert calls == DERIVED_STATE_STEPS


@pytest.mark.parametrize(
    "file, planted",
    [
        ("serialize.py", "def state_from_text(m, tol):\n    return _derived_state(m, tol)\n"),
        ("cli.py", "def cmd_trust(args):\n    return states._derived_state(args.m, args.tol)\n"),
        ("cli.py", "from .states import _derived_state as trusted\n"),
        ("kraus.py", "build = _derived_state\n"),
        ("dynamics.py", "def evolve_joint_fast(h, s, t):\n    return _derived_state(h, s.mat.tol)\n"),
        ("serialize.py", "def raw(m):\n    return object.__new__(DensityMatrix)\n"),
    ],
    ids=["serialize-call", "cli-attribute-call", "cli-renamed-import", "kraus-alias", "dynamics-other-step",
         "serialize-new"],
)
def test_unvalidated_state_fence_fires_on_a_planted_use(file, planted):
    sources = _sources()
    sources[file] += "\n\n" + planted
    _, faults = unvalidated_state_uses(sources)
    assert [fault[0] for fault in faults] == [file]


#: What cli.py must not use to build a document: every indented document it writes goes through serialize's
#: writer (``text``, ``rows_text``, ``kraus_text`` or ``report_text``), one template cache.
DOCUMENT_BUILDERS = {"matrix_to_json", "kraus_to_json", "report_to_json", "dumps"}


def hand_built_documents(source: str) -> list:
    """(line, name) for each use in ``source`` of a name in DOCUMENT_BUILDERS: called, taken as a value or
    imported, under ``serialize.`` or as a bare name.  The one allowed use is ``json.dumps(...)`` called with no
    ``indent`` keyword and no ``**`` keywords (that might hold one): the CLI's one-line documents."""
    nodes = list(ast.walk(ast.parse(source)))
    calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
    faults = []
    for node in nodes:
        name = node.name if isinstance(node, ast.alias) else _name(node)
        if name not in DOCUMENT_BUILDERS:
            continue
        call = calls.get(id(node))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json"
                and call is not None and not any(kw.arg in ("indent", None) for kw in call.keywords)):
            continue
        faults.append((node.lineno, name))
    return faults


def test_cli_builds_no_indented_document_by_hand():
    assert hand_built_documents(_sources()["cli.py"]) == []


@pytest.mark.parametrize(
    "planted, name",
    [
        ("def cmd_x(args):\n    return serialize.matrix_to_json(args.m)\n", "matrix_to_json"),
        ("from .serialize import matrix_to_json\n\ndef cmd_x(args):\n    return matrix_to_json(args.m)\n",
         "matrix_to_json"),
        ("def cmd_x(args):\n    return serialize.kraus_to_json(args.k)\n", "kraus_to_json"),
        ("from .serialize import kraus_to_json\n\ndef cmd_x(args):\n    return kraus_to_json(args.k)\n",
         "kraus_to_json"),
        ("def cmd_x(args):\n    return serialize.report_to_json(args.r)\n", "report_to_json"),
        ("from .serialize import report_to_json\n\ndef cmd_x(args):\n    return report_to_json(args.r)\n",
         "report_to_json"),
        ("def cmd_x(args):\n    return serialize.dumps(args.doc)\n", "dumps"),
        ("from .serialize import dumps\n\ndef cmd_x(args):\n    return dumps(args.doc)\n", "dumps"),
        ("def cmd_x(args):\n    return json.dumps(args.doc, indent=2)\n", "dumps"),
        ("from json import dumps\n\ndef cmd_x(args):\n    return dumps(args.doc, indent=2)\n", "dumps"),
        ("def cmd_x(args):\n    return json.dumps(args.doc, **args.style)\n", "dumps"),
        ("encode = serialize.matrix_to_json\n", "matrix_to_json"),
    ],
    ids=["serialize.matrix_to_json", "imported-matrix_to_json", "serialize.kraus_to_json", "imported-kraus_to_json",
         "serialize.report_to_json", "imported-report_to_json", "serialize.dumps", "imported-dumps",
         "json.dumps-indent", "imported-json-dumps-indent", "json.dumps-star-keywords", "taken-as-a-value"],
)
def test_hand_built_document_fence_fires_on_a_planted_use(planted, name):
    source = _sources()["cli.py"] + "\n\n" + planted
    faults = hand_built_documents(source)
    assert faults and {what for _, what in faults} == {name}
    assert all(line > len(_sources()["cli.py"].splitlines()) for line, _ in faults)
