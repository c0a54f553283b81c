"""No ``assert`` statement in the package.

``python -O`` strips assert statements, so a check written as one would
silently stop holding; the package's checks raise instead. Parsing the
sources stands in for a lint rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rsvp

SOURCES = sorted(Path(rsvp.__file__).parent.rglob("*.py"))


def test_sources_were_found():
    assert any(path.name == "signature.py" for path in SOURCES)


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
