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

import re
import sys
import warnings
from pathlib import Path

from .graphs import MAX_VERTICES, Graph


class ParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


class GraphFormatWarning(UserWarning):
    """Recoverable oddity in an input file."""


def _warn(message: str) -> None:
    warnings.warn(GraphFormatWarning(message), stacklevel=3)


def _counts(tokens: list[str], lineno: int, name: str) -> list[int]:
    """The non-negative integers of a header line; the first counts vertices,
    so it must not exceed ``MAX_VERTICES``."""
    try:
        counts = [int(token) for token in tokens]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer {name}") from None
    if min(counts) < 0:
        raise ParseError(f"line {lineno}: negative {name}")
    if counts[0] > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {counts[0]} vertices exceed the limit of {MAX_VERTICES}")
    return counts


def _add_edge(rows: list[int], lineno: int, u_token: str, w_token: str,
              n: int, base: int, kind: str = "") -> int:
    """Check the edge between two ``base``-based vertex ids and set it in
    ``rows``, the graph's ``bits`` to be; 1 if it was set already, else 0."""
    try:
        u, w = int(u_token) - base, int(w_token) - base
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer vertex id") from None
    if not (0 <= u < n and 0 <= w < n):
        raise ParseError(f"line {lineno}: vertex id outside {base}..{n + base - 1}")
    if u == w:
        raise ParseError(f"line {lineno}: self-loop '{kind}{u + base} {w + base}'")
    row = rows[u]
    rows[u] = row | 1 << w
    if rows[u] == row:
        return 1
    rows[w] |= 1 << u
    return 0


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS ``p edge`` format into a :class:`Graph`."""
    n: int | None = None
    declared_m = 0
    rows: list[int] = []
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
            n, declared_m = _counts(tokens[2:], lineno, "counts")
            rows = [0] * n
        elif kind == "e":
            if n is None:
                raise ParseError(f"line {lineno}: 'e' line before 'p' line")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            duplicates += _add_edge(rows, lineno, tokens[1], tokens[2], n, 1, "e ")
        elif kind == "n":
            # vertex color annotations are out of scope
            colored_lines += 1
        else:
            raise ParseError(f"line {lineno}: unrecognized line {raw!r}")

    if n is None:
        raise ParseError("missing 'p edge <n> <m>' line")
    g = Graph.__new__(Graph)._adopt(rows)
    if duplicates:
        _warn(f"{duplicates} duplicate edge line(s) collapsed")
    if colored_lines:
        _warn(f"{colored_lines} vertex color line(s) ignored")
    if declared_m != g.m:
        _warn(f"declared {declared_m} edges, found {g.m}; using actual count")
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the 0-based edge-list format into a :class:`Graph`."""
    n: int | None = None
    rows: list[int] = []
    duplicates = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            (n,) = _counts(tokens, lineno, "vertex count")
            rows = [0] * n
        elif len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<u> <v>', got {raw!r}")
        else:
            duplicates += _add_edge(rows, lineno, tokens[0], tokens[1], n, 0)

    if n is None:
        raise ParseError("missing vertex count line")
    if duplicates:
        _warn(f"{duplicates} duplicate edge line(s) collapsed")
    return Graph.__new__(Graph)._adopt(rows)


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS, edges ascending, 1-based, newline-terminated."""
    rows = ("".join(f"e {u + 1} {w + 1}\n" for w in sorted(row) if w > u)
            for u, row in enumerate(g.adjacency))
    return f"p edge {g.n} {g.m}\n" + "".join(rows)


def to_edge_list(g: Graph) -> str:
    """Serialize to the 0-based edge-list format, newline-terminated. Like
    :func:`to_dimacs`, it joins one string per adjacency row, not m lines."""
    rows = ("".join(f"{u} {w}\n" for w in sorted(row) if w > u)
            for u, row in enumerate(g.adjacency))
    return f"{g.n}\n" + "".join(rows)


def sniff_format(text: str) -> str:
    """Guess ``"dimacs"`` or ``"edgelist"`` from the first whitespace-delimited
    token, which starts the first significant line."""
    first = re.search(r"\S+", text)
    if first is None:
        raise ParseError("empty input")
    return "dimacs" if first.group() in ("c", "p", "e", "n") else "edgelist"


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
