from __future__ import annotations

import io
import random
import warnings
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_rss_mb, shuffled_copy
from rsvp.formats import (
    MAX_VERTICES,
    GraphFormatWarning,
    ParseError,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    sniff_format,
    to_dimacs,
    to_edge_list,
)
from rsvp.generators import complete, graph_from_spec, paley, random_gnm, shrikhande, worked_example
from rsvp.graphs import Graph


def test_parse_dimacs_k2():
    g = parse_dimacs("p edge 2 1\ne 1 2")
    assert (g.n, g.m) == (2, 1)
    assert g.edges() == [(0, 1)]


def test_parse_dimacs_triangle_with_comment():
    g = parse_dimacs("c hi\np edge 3 3\ne 1 2\ne 2 3\ne 1 3")
    assert g == complete(3)


def test_parse_dimacs_self_loop_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_dimacs("p edge 2 1\ne 1 1")


@pytest.mark.parametrize(
    "text,match",
    [
        ("e 1 2\np edge 2 1", "line 1"),  # edge before header
        ("p edge 2 1\ne 1 3", "line 2"),  # id out of range
        ("p edge 2 1\ne 1", "line 2"),  # malformed edge line
        ("p edge 2 1\nx 1 2", "line 2"),  # unknown line kind
        ("p edge 2 1\np edge 2 1", "line 2"),  # second header
        ("p foo 2 1", "line 1"),
        ("p edge -3 2", "line 1: negative counts"),
        ("p edge 2 1\ne 1 x", "line 2: non-integer vertex id"),
        ("e 1 2", "line 1"),
        ("", "missing"),
    ],
)
def test_parse_dimacs_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_dimacs(text)


def test_oversized_vertex_count_is_refused_before_allocation():
    with pytest.raises(ParseError, match="line 2: 1000000000 vertices exceed the limit"):
        parse_dimacs("c huge\np edge 1000000000 0\n")
    with pytest.raises(ParseError, match="line 1: 1000000000 vertices exceed the limit"):
        parse_edge_list("1000000000\n")
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0").n == MAX_VERTICES
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list(f"{MAX_VERTICES + 1}\n")


def test_parse_dimacs_duplicate_edges_warn_and_collapse():
    with pytest.warns(GraphFormatWarning, match="duplicate"):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\ne 2 3")
    assert g.m == 2


def test_parse_dimacs_count_mismatch_uses_actual():
    with pytest.warns(GraphFormatWarning, match="using actual"):
        g = parse_dimacs("p edge 3 9\ne 1 2")
    assert g.m == 1


def test_parse_dimacs_vertex_color_lines_ignored():
    with pytest.warns(GraphFormatWarning, match="color"):
        g = parse_dimacs("p edge 2 1\nn 1 4\ne 1 2")
    assert g.m == 1


def test_parse_edge_list_path():
    g = parse_edge_list("3\n0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_edge_list_comments_and_blank_lines():
    g = parse_edge_list("# a comment\n\n2\n0 1  # trailing\n")
    assert (g.n, g.m) == (2, 1)


@pytest.mark.parametrize(
    "text",
    ["", "x", "2\n0 0", "2\n0 2", "2\n0 1 9", "2\n0", "-3\n", "3 2\n0 1"],
)
def test_parse_edge_list_errors(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_parse_edge_list_duplicates_warn():
    with pytest.warns(GraphFormatWarning, match="duplicate"):
        g = parse_edge_list("2\n0 1\n1 0")
    assert g.m == 1


def test_to_dimacs_fixed_serialization():
    assert to_dimacs(complete(2)) == "p edge 2 1\ne 1 2\n"


def test_writers_ignore_adjacency_storage_order():
    assert to_edge_list(shuffled_copy(worked_example(), random.Random(1))) == (
        "6\n0 1\n0 5\n1 2\n2 3\n2 5\n3 4\n4 5\n")
    rng = random.Random(3)
    for g in (worked_example(), paley(13), random_gnm(30, 120, 4), Graph(3)):
        h = shuffled_copy(g, rng)
        assert to_dimacs(h) == to_dimacs(g)
        assert to_edge_list(h) == to_edge_list(g)


def test_round_trip_dimacs_on_shrikhande():
    g = shrikhande()
    assert parse_dimacs(to_dimacs(g)) == g


def test_round_trip_edge_list_on_shrikhande():
    g = shrikhande()
    assert parse_edge_list(to_edge_list(g)) == g


def test_sniff_format():
    assert sniff_format("p edge 1 0") == "dimacs"
    assert sniff_format("c x\np edge 1 0") == "dimacs"
    assert sniff_format("3\n0 1") == "edgelist"
    assert sniff_format("# hi\n3") == "edgelist"
    with pytest.raises(ParseError):
        sniff_format("  \n ")


def _sniff_by_lines(text: str) -> str | None:
    """The line-splitting rule sniff_format had before it read one token."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        first = stripped.split()[0]
        if first in ("c", "p", "e", "n"):
            return "dimacs"
        return "edgelist"
    return None


# ASCII and Unicode whitespace, line boundaries that are not "\n", a byte
# order mark (not whitespace) and the tokens that pick one format or the other
_SNIFF_PIECES = st.sampled_from([
    "c", "p", "e", "n", "#", "1", "cp", "x", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c",
    "\x1e", "\x85", "\xa0", "\u2028", "\u2029", "\u3000", "\ufeff",
])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_SNIFF_PIECES, max_size=10).map("".join), st.text(max_size=8)))
def test_sniff_format_agrees_with_the_line_rule(text):
    expected = _sniff_by_lines(text)
    if expected is None:
        with pytest.raises(ParseError, match="empty input"):
            sniff_format(text)
    else:
        assert sniff_format(text) == expected


@pytest.mark.parametrize(
    "graph",
    [pytest.param(graph_from_spec(spec), id=spec) for spec in (
        "cycle:7", "complete:5", "path:2", "disjoint_union:cycle:4:complete:3", "rook:3",
        "paley:13", "random_gnm:12:20:3", "random_regular:10:3:1", "worked_example")]
    + [pytest.param(Graph(0), id="empty"), pytest.param(Graph(1), id="one-vertex"),
       pytest.param(Graph(5, [(1, 3)]), id="isolated-vertices")],
)
def test_parse_graph_sniffs_either_writer(graph):
    # sniffing alone picks the right reader, past comments and blank lines
    for text, comment in ((to_dimacs(graph), "c written by a tool\n"),
                          (to_edge_list(graph), "# written by a tool\n")):
        assert parse_graph(text) == graph
        assert parse_graph("\n" + comment + "\n  \n" + text) == graph


@pytest.mark.parametrize("serializer", [to_dimacs, to_edge_list])
def test_a_leading_byte_order_mark_is_dropped(serializer, tmp_path, monkeypatch):
    graph = graph_from_spec("paley:13")
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(serializer(graph), encoding="utf-8")
    bom.write_text("\ufeff" + serializer(graph), encoding="utf-8")
    assert load_graph(bom) == load_graph(plain) == graph

    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + serializer(graph)))
    assert load_graph("-") == graph


def test_load_graph_from_file_and_stdin(tmp_path, monkeypatch):
    target = tmp_path / "k2.col"
    target.write_text(to_dimacs(complete(2)), encoding="utf-8")
    assert load_graph(target) == complete(2)

    monkeypatch.setattr("sys.stdin", io.StringIO("3\n0 1\n"))
    assert load_graph("-").n == 3


class _Trickle:
    """A text stream whose reads return a few characters at a time, so that
    lines and their breaks, CR LF among them, fall across read blocks."""

    def __init__(self, text: str, sizes: list[int]) -> None:
        self.rest, self.sizes = text, cycle(sizes)

    def read(self, size: int) -> str:
        cut = min(size, next(self.sizes))
        piece, self.rest = self.rest[:cut], self.rest[cut:]
        return piece


def _outcome(reader, source):
    """The graph ``reader`` makes of ``source``, or its error message, and
    the messages of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(source)
        except ParseError as exc:
            result = str(exc)
    return result, [str(warning.message) for warning in caught]


# lines of either format, and every line boundary str.splitlines knows
_STREAM_PIECES = st.sampled_from([
    "p edge 3 2", "e 1 2", "e 2 3", "e 1 1", "c x", "n 1 1", "3", "0 1", "1 2", "# x", "x",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\ufeff",
])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "p edge 3 2\n", "3\n"]), st.lists(_STREAM_PIECES, max_size=12),
       st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_a_stream_read_in_pieces_parses_as_its_whole_text(head, pieces, sizes):
    text = head + "".join(pieces)
    for reader in (parse_dimacs, parse_edge_list, parse_graph):
        assert _outcome(reader, _Trickle(text, sizes)) == _outcome(reader, text)


def test_a_crlf_across_two_read_blocks_is_one_line_break():
    # streams are read 64 Ki characters at a time: the CR that ends the
    # first block and the LF that starts the second end one line
    header = "p edge 2 1\r\n"
    text = header + "c " + "x" * (2**16 - len(header) - 3) + "\r\ne 1 1\r\n"
    assert text.index("\r\ne 1") == 2**16 - 1
    with pytest.raises(ParseError, match="^line 3: self-loop 'e 1 1'$"):
        parse_graph(io.StringIO(text))


@pytest.mark.parametrize("serializer", [to_dimacs, to_edge_list])
def test_a_dense_graph_file_loads_without_its_whole_text(serializer, tmp_path):
    # m = 1,124,250: the 15 MB text of complete:1500, read whole and split
    # into a list of lines, peaked at about 104 MB; read a block at a time,
    # the load holds one block of lines next to the graph
    target = tmp_path / "k1500.txt"
    target.write_text(serializer(complete(1500)), encoding="utf-8")
    assert peak_rss_mb(f"from rsvp.formats import load_graph; load_graph({str(target)!r})") < 50
