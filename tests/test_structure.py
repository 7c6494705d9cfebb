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
