"""Readers and writers for the two on-disk graph formats.

DIMACS::

    c optional comments
    p edge <n> <m>
    e <u> <v>        (1-based vertex ids)

Edge list::

    # optional comments
    <n>
    <u> <v>          (0-based vertex ids)

Vertex ids are shifted to dense 0-based integers on input. Duplicate edges
are collapsed with a :class:`GraphFormatWarning`; a declared edge count that
disagrees with the deduplicated count also warns and the actual count wins.
Structural violations (self-loops, ids out of range, malformed lines) raise
:class:`ParseError` naming the offending line number, and so does a declared
vertex count above ``MAX_VERTICES``, before anything is allocated for it.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

from .graphs import Graph

# largest vertex count a reader or a generator spec accepts: a certificate
# holds n² elements, so even an edgeless graph at the limit certifies to
# 64 MiB of text, and the adjacency rows are allocated up front
MAX_VERTICES = 4_096


class ParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


class GraphFormatWarning(UserWarning):
    """Recoverable oddity in an input file."""


def _warn(message: str) -> None:
    warnings.warn(GraphFormatWarning(message), stacklevel=3)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS ``p edge`` format into a :class:`Graph`."""
    n: int | None = None
    declared_m = 0
    edges: set[tuple[int, int]] = set()
    duplicates = 0
    colored_lines = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second 'p' line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts") from None
            if n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: negative counts")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
        elif kind == "e":
            if n is None:
                raise ParseError(f"line {lineno}: 'e' line before 'p' line")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, w = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= w <= n):
                raise ParseError(f"line {lineno}: vertex id outside 1..{n}")
            if u == w:
                raise ParseError(f"line {lineno}: self-loop 'e {u} {w}'")
            key = (u - 1, w - 1) if u < w else (w - 1, u - 1)
            if key in edges:
                duplicates += 1
            else:
                edges.add(key)
        elif kind == "n":
            # vertex color annotations are out of scope
            colored_lines += 1
        else:
            raise ParseError(f"line {lineno}: unrecognized line {raw!r}")

    if n is None:
        raise ParseError("missing 'p edge <n> <m>' line")
    if duplicates:
        _warn(f"{duplicates} duplicate edge line(s) collapsed")
    if colored_lines:
        _warn(f"{colored_lines} vertex color line(s) ignored")
    if declared_m != len(edges):
        _warn(f"declared {declared_m} edges, found {len(edges)}; using actual count")
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the 0-based edge-list format into a :class:`Graph`."""
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    duplicates = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex count") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<u> <v>', got {raw!r}")
        try:
            u, w = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id") from None
        if not (0 <= u < n and 0 <= w < n):
            raise ParseError(f"line {lineno}: vertex id outside 0..{n - 1}")
        if u == w:
            raise ParseError(f"line {lineno}: self-loop '{u} {w}'")
        key = (u, w) if u < w else (w, u)
        if key in edges:
            duplicates += 1
        else:
            edges.add(key)

    if n is None:
        raise ParseError("missing vertex count line")
    if duplicates:
        _warn(f"{duplicates} duplicate edge line(s) collapsed")
    return Graph(n, edges)


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS, edges ascending, 1-based, newline-terminated."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {w + 1}" for u, w in g.edges())
    return "".join(line + "\n" for line in lines)


def to_edge_list(g: Graph) -> str:
    """Serialize to the 0-based edge-list format, newline-terminated."""
    lines = [str(g.n)]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "".join(line + "\n" for line in lines)


def sniff_format(text: str) -> str:
    """Guess ``"dimacs"`` or ``"edgelist"`` from the first significant line."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        first = stripped.split()[0]
        if first in ("c", "p", "e", "n"):
            return "dimacs"
        return "edgelist"
    raise ParseError("empty input")


def parse_graph(text: str) -> Graph:
    """Parse ``text`` in the format :func:`sniff_format` names.

    One leading byte order mark (U+FEFF, as some Windows editors write) is
    dropped first.
    """
    text = text.removeprefix("\ufeff")
    if sniff_format(text) == "dimacs":
        return parse_dimacs(text)
    return parse_edge_list(text)


def load_graph(source: str | Path) -> Graph:
    """Read a graph from a file path, or from standard input when ``-``."""
    if str(source) == "-":
        return parse_graph(sys.stdin.read())
    return parse_graph(Path(source).read_text(encoding="utf-8"))
