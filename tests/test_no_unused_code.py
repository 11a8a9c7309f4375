"""Every top-level function and class of the runtime is used by the runtime,
every name a runtime module imports is used by that module, and the packed
layout is used outside ``poly`` only where listed.

A definition counts as used when some code in ``src/tamedeg`` outside the
definition itself names it: as a name, as an attribute or in a
``from ... import``.  Code that only tests call is deleted, or listed in
ALLOWED with the reason it stays.  Substitution, composition and products
run through ``poly._compose`` and powers through ``poly._powers``, the only
functions of ``poly`` that lay out, pack or unpack; a module outside ``poly``
that names the packing helpers is listed in PACKING_ALLOWED with the reason
it keeps its own packed loop.  An import that its module does not refer to
(``__all__`` counts) is deleted, or listed in IMPORTS_ALLOWED with the reason
it stays.  Indented JSON is printed by one writer, ``cli._json_text``, not
by ``json.dumps(..., indent=...)``, which CPython encodes in pure Python.
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

IMPORTS_ALLOWED = {
    "plane.is_power_proportional":
        "bench/spans.py times plane's name in the bracket.is_power_proportional span",
    "reductions.poisson_degree":
        "bench/spans.py times reductions' name in the bracket.poisson_degree span",
}

PACKING = {"_layout", "_pack", "_unpack", "_substitute_packed", "_power_row"}

PACKING_ALLOWED = {
    "reductions": "the search's graded layout, whose products are never unpacked",
}

LAYOUT = {"_layout", "_pack", "_unpack"}

LAYOUT_USERS = {"_compose", "_powers"}

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


def unused_imports() -> list[str]:
    """``module.name`` of each name a module imports and does not refer to,
    as a name or in its ``__all__``."""
    unused = []
    for source in SOURCES:
        tree = ast.parse(source.read_text(), filename=str(source))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{source.stem}.{name}" for name in imported - used]
    return unused


def test_imports_are_used():
    """An entry leaves IMPORTS_ALLOWED once its module uses the name."""
    assert sorted(unused_imports()) == sorted(IMPORTS_ALLOWED)


def test_packing_stays_in_poly():
    """A module leaves PACKING_ALLOWED once it composes through poly."""
    packing = {source.stem for source in SOURCES if source.stem != "poly"
               and PACKING & set(_names(ast.parse(source.read_text(), filename=str(source))))}
    assert packing == set(PACKING_ALLOWED)


def test_layout_only_in_compose_and_powers():
    """Inside ``poly``, one packed entry per concept: chains (substitution,
    composition, products) through ``_compose`` and power lists through
    ``_powers``.  Each method counts as a function of its own, and a
    statement outside any function by its node type."""
    source = next(source for source in SOURCES if source.stem == "poly")
    users = set()
    for node in ast.parse(source.read_text(), filename=str(source)).body:
        for f in node.body if isinstance(node, ast.ClassDef) else [node]:
            if LAYOUT & set(_names(f)):
                users.add(getattr(f, "name", type(f).__name__))
    assert users == LAYOUT_USERS


def test_no_indented_json_dumps():
    """Every indented JSON text comes from ``cli._json_text``."""
    calls = [f"{source.stem}:{node.lineno}" for source in SOURCES
             for node in ast.walk(ast.parse(source.read_text(), filename=str(source)))
             if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                       getattr(node.func, "id", None)) == "dumps"
             and any(k.arg == "indent" for k in node.keywords)]
    assert calls == []
