"""Strongly regular pairs from the paper's hard families, built from their
definitions in the tests rather than through the package's generators.

A Latin square graph has the n * n cells of a Latin square as vertices, two
cells adjacent when they share a row, a column or a symbol; for n = 5 every
such graph is SRG(25, 12, 5, 6), the parameter set of Paulus's graphs. The
triangular graph T(8) is the line graph of K8, SRG(28, 12, 6, 4); Seidel
switching it on the T(8) vertices of a perfect matching, of C8 and of C3 ∪ C5
gives the three Chang graphs, with the same parameters (Chang, Sci. Record 4,
1960). The labels come from networkx: parameters from the edges, and
non-isomorphism from a clique count or VF2.
"""

from __future__ import annotations

from itertools import combinations

from rsvp.graphs import Graph

# Z5's addition table, and a square of order 5 that is no group's table
Z5_ROWS = ("01234", "12340", "23401", "34012", "40123")
NON_GROUP_ROWS = ("01234", "10342", "23401", "34120", "42013")

# graphs on {0..7} whose edges, as T(8) vertices, switch T(8) to Chang 1, 2, 3
CHANG_SWITCHES = (
    ((0, 1), (2, 3), (4, 5), (6, 7)),
    tuple((i, (i + 1) % 8) for i in range(8)),
    ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)),
)


def latin_square_graph(rows: tuple[str, ...]) -> Graph:
    """Cell (r, c) is vertex r * n + c; cells sharing a row, a column or a
    symbol are adjacent."""
    n = len(rows)
    cells = [(r, c, rows[r][c]) for r in range(n) for c in range(n)]
    return Graph(n * n, [(i, j) for (i, a), (j, b) in combinations(enumerate(cells), 2)
                         if any(x == y for x, y in zip(a, b))])


def _pairs() -> list[tuple[int, int]]:
    return list(combinations(range(8), 2))


def triangular_graph() -> Graph:
    """T(8): the 2-subsets of {0..7}, adjacent when they meet."""
    pairs = _pairs()
    return Graph(len(pairs), [(i, j) for (i, a), (j, b) in combinations(enumerate(pairs), 2)
                              if set(a) & set(b)])


def seidel_switch(g: Graph, switched: set[int]) -> Graph:
    """``g`` with adjacency toggled between ``switched`` and the rest."""
    return Graph(g.n, [(u, w) for u, w in combinations(range(g.n), 2)
                       if (w in g.adjacency[u]) != ((u in switched) != (w in switched))])


def chang_graph(which: int) -> Graph:
    """Chang graph 1, 2 or 3: T(8) switched on the T(8) vertices that are the
    edges of ``CHANG_SWITCHES[which - 1]``."""
    index = {pair: i for i, pair in enumerate(_pairs())}
    switched = {index[tuple(sorted(edge))] for edge in CHANG_SWITCHES[which - 1]}
    return seidel_switch(triangular_graph(), switched)
