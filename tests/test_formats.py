from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rsvp.generators import complete, graph_from_spec, shrikhande
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
    ["", "x", "2\n0 0", "2\n0 2", "2\n0 1 9", "2\n0"],
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
