"""The runtime imports only the standard library and its own modules, and
parses as the oldest Python that ``pyproject.toml`` allows."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tamedeg").glob("*.py"))


def _imported(tree: ast.Module):
    """(module name, level) of every import statement in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_tamedeg(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    outside = [name for name, level in _imported(tree)
               if not level and name.partition(".")[0] not in sys.stdlib_module_names
               and name.partition(".")[0] != "tamedeg"]
    assert outside == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(source):
    # requires-python >= 3.10; the check is best effort (ast's feature_version)
    ast.parse(source.read_text(), filename=str(source), feature_version=(3, 10))


def test_sources_found():
    assert {"poly.py", "cli.py", "witness.py"} <= {path.name for path in SOURCES}
