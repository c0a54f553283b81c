"""Every name a package module imports is read by some expression in it.

An import that nothing reads is left over from code that moved or went: it
keeps a dependency alive that the module no longer has, and it hides which
names a module really uses. A name kept bound on purpose, for a reader
outside the module, says so with ``# noqa: F401`` on its import line.
Parsing the sources stands in for a lint rule.
"""

from __future__ import annotations

import ast

from test_layers import package_sources


def unused_imports(source: str) -> list[str]:
    """``line:name`` for each name ``source`` imports and no expression in it
    reads, unless a line of its import statement carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append(f"{node.lineno}:{name}")
    return found


def test_every_imported_name_is_read():
    faults = {name: unused for name, source in package_sources().items()
              if (unused := unused_imports(source))}
    assert faults == {}


def test_the_check_sees_unread_names_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from itertools import chain, repeat\n"
        "from .graphs import (Graph,\n"
        "                     MAX_VERTICES)\n"
        "from .distances import distance_matrix  # noqa: F401\n"
        "def f(g: Graph) -> list:\n"
        "    return list(chain(regex.findall('x', 'y')))\n"
    )
    assert unused_imports(source) == ["2:os", "4:repeat", "5:MAX_VERTICES"]
