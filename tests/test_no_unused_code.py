"""Every top-level function and class of the runtime is used by the runtime.

A definition counts as used when some code in ``src/tamedeg`` outside the
definition itself names it: as a name, as an attribute or in a
``from ... import``.  Code that only tests call is deleted, or listed in
ALLOWED with the reason it stays.
"""
import ast
from collections import defaultdict
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tamedeg").glob("*.py"))

ALLOWED = {
    # the paper's plane theorems, kept to become invariants analyze2 checks
    "plane.length_bound": "to check the length of every decomposition",
    "plane.inverse_mdeg_prediction": "to check mdeg of every inverse",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name ``node``'s subtree refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unused_definitions() -> list[str]:
    """``module.name`` of each top-level definition nothing else refers to."""
    defined, sites = [], defaultdict(set)  # sites: name -> where it is referred to
    for source in SOURCES:
        module = source.stem
        for node in ast.parse(source.read_text(), filename=str(source)).body:
            site = None
            if isinstance(node, DEFINITIONS):
                defined.append((module, node.name))
                site = (module, node.name)  # a self-reference does not count
            for name in _names(node):
                sites[name].add(site)
    return [f"{module}.{name}" for module, name in defined
            if not sites[name] - {(module, name)}]


def test_every_definition_is_used():
    """An entry leaves ALLOWED once the runtime uses it."""
    assert sorted(unused_definitions()) == sorted(ALLOWED)
