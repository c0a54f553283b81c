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

A reader takes the whole text, a text stream, which it reads a block at a
time, or the lines of the text. Either way the lines and their numbers are
those ``str.splitlines`` gives the whole text.
"""

from __future__ import annotations

import re
import sys
import warnings
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TextIO

from .graphs import MAX_VERTICES, Graph


class ParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


class GraphFormatWarning(UserWarning):
    """Recoverable oddity in an input file."""


def _warn(message: str) -> None:
    warnings.warn(GraphFormatWarning(message), stacklevel=3)


# the characters at which str.splitlines ends a line, but for "\r", after
# which a "\n" would still belong to the same line break
_ENDS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _blocks(stream: TextIO) -> Iterator[list[str]]:
    """The lines of a text stream, one list per 64 Ki characters read; a
    block's last line, unless a line break ends it, waits for the next."""
    carry = ""
    for block in iter(partial(stream.read, 1 << 16), ""):
        lines = (carry + block).splitlines()
        carry = "" if block[-1] in _ENDS else lines.pop()
        if block[-1] == "\r":
            carry += "\r"
        yield lines
    yield carry.splitlines()


def _lines(text: str | Iterable[str]) -> Iterable[str]:
    """The lines of ``text``, the whole text, a text stream or its lines."""
    if isinstance(text, str):
        return text.splitlines()
    if hasattr(text, "read"):
        return chain.from_iterable(_blocks(text))
    return text


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


def parse_dimacs(text: str | Iterable[str]) -> Graph:
    """Parse DIMACS ``p edge`` format into a :class:`Graph`."""
    n: int | None = None
    declared_m = 0
    rows: list[int] = []
    duplicates = 0
    colored_lines = 0

    for lineno, raw in enumerate(_lines(text), start=1):
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


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the 0-based edge-list format into a :class:`Graph`."""
    n: int | None = None
    rows: list[int] = []
    duplicates = 0

    for lineno, raw in enumerate(_lines(text), start=1):
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


def _text(g: Graph, fmt: str) -> Iterator[str]:
    """The text of ``g`` in ``fmt``, ``"dimacs"`` or ``"edgelist"``: its
    header, then one string per adjacency row, that row's edges to higher ids
    ascending, so no string holds more than one row."""
    dimacs = fmt == "dimacs"
    yield f"p edge {g.n} {g.m}\n" if dimacs else f"{g.n}\n"
    prefix, base = ("e ", 1) if dimacs else ("", 0)
    for u, row in enumerate(g.adjacency):
        yield "".join([f"{prefix}{u + base} {w + base}\n" for w in sorted(row) if w > u])


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS, edges ascending, 1-based, newline-terminated."""
    return "".join(_text(g, "dimacs"))


def to_edge_list(g: Graph) -> str:
    """Serialize to the 0-based edge-list format, newline-terminated."""
    return "".join(_text(g, "edgelist"))


def sniff_format(text: str) -> str:
    """Guess ``"dimacs"`` or ``"edgelist"`` from the first whitespace-delimited
    token, which starts the first significant line."""
    first = re.search(r"\S+", text)
    if first is None:
        raise ParseError("empty input")
    return "dimacs" if first.group() in ("c", "p", "e", "n") else "edgelist"


def parse_graph(text: str | Iterable[str]) -> Graph:
    """Parse ``text`` in the format :func:`sniff_format` names for its first
    significant line, which is read ahead and handed on with the rest.

    One leading byte order mark (U+FEFF, as some Windows editors write) is
    dropped first.
    """
    lines = iter(_lines(text))
    head = [next(lines, "").removeprefix("\ufeff")]
    while not head[-1].strip() and (line := next(lines, None)) is not None:
        head.append(line)
    reader = parse_dimacs if sniff_format(head[-1]) == "dimacs" else parse_edge_list
    return reader(chain(head, lines))


def load_graph(source: str | Path) -> Graph:
    """Read a graph from a file path, or from standard input when ``-``."""
    if str(source) == "-":
        return parse_graph(sys.stdin)
    with open(source, encoding="utf-8") as stream:
        return parse_graph(stream)
