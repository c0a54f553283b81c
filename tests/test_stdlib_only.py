"""The package imports nothing outside the standard library.

The runtime has no dependencies (``pyproject.toml`` lists none); numpy,
networkx and hypothesis may be installed, but only the tests use them.
Parsing the sources stands in for a lint rule.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import rsvp

SOURCES = sorted(Path(rsvp.__file__).parent.rglob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_were_found():
    assert any(path.name == "signature.py" for path in SOURCES)


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"rsvp"}
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if name.split(".")[0] not in allowed
    ]
    assert found == []


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy import zeros\nfrom . import graphs\n")
    assert list(_absolute_imports(tree)) == ["os", "numpy"]
