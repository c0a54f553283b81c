"""No code in the package writes to a graph's stores.

``Graph``'s docstring says nothing may write to ``bits``, ``adjacency``,
``second`` or ``profiles``: ``second`` and ``profiles`` are caches built on
first use, and stay true only while the edge set they were built from does.
Parsing the sources stands in for a lint rule: an assignment, augmented
assignment, ``del`` or in-place list-method call whose target is one of these
attributes, or a subscript of one, fails the test anywhere but in ``Graph``'s
own methods. ``n`` and ``m`` are left out, since ``ReportRow`` has fields of
those names and the check sees names only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rsvp

SOURCES = sorted(Path(rsvp.__file__).parent.rglob("*.py"))

STORES = {"bits", "adjacency", "second", "_second", "profiles", "_profiles"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _store(node: ast.expr) -> bool:
    """True iff ``node`` is a store attribute or a subscript of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in STORES


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, (ast.Assign, ast.Delete)):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
        found = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        return [node.func.value]
    else:
        return []
    flat = []
    while found:
        target = found.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            found.extend(target.elts)
        elif isinstance(target, ast.Starred):
            found.append(target.value)
        else:
            flat.append(target)
    return flat


def writes(tree: ast.AST, exempt_class: str | None = None) -> list[int]:
    """Line numbers of the writes to a store in ``tree``, skipping the body of
    the class named ``exempt_class``."""
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == exempt_class:
            continue
        lines.extend(target.lineno for target in _targets(node) if _store(target))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_sources_were_found():
    assert any(path.name == "graphs.py" for path in SOURCES)


def test_every_kind_of_write_is_caught():
    for source in ("g.bits[0] |= 1", "g.adjacency = []", "g.adjacency[2][0] = 5",
                   "del g.second[0]", "g.profiles.sort()", "g.adjacency[0].append(3)",
                   "a, *g._profiles = x", "g._second: tuple = ()", "for g.bits[0] in x: pass"):
        assert writes(ast.parse(source)) == [1], source
    for source in ("bits[0] |= 1", "g.bits[0] | 1", "rows = g.bits", "g.n = 3", "g.bits.count(1)",
                   "report.m = 4"):
        assert writes(ast.parse(source)) == [], source


def test_only_graph_methods_write_to_its_stores():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in writes(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                           "Graph" if path.name == "graphs.py" else None)
    ]
    assert found == []
