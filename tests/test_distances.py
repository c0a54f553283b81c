from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from rsvp.distances import bfs_distances, distance_matrix
from rsvp.generators import complete, cycle, disjoint_union, worked_example
from rsvp.graphs import Graph, Permutation, permute


def floyd_warshall(g: Graph) -> list[list[int | None]]:
    """Independent reference for all-pairs hop distances."""
    inf = float("inf")
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, w in g.edges():
        dist[u][w] = dist[w][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = dist[i][k]
            if dik is inf:
                continue
            for j in range(g.n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return [[None if d is inf else int(d) for d in row] for row in dist]


def test_cycle6_row():
    assert bfs_distances(cycle(6), 0) == [0, 1, 2, 3, 2, 1]


def test_disjoint_triangles_unreachable():
    g = disjoint_union(complete(3), complete(3))
    row = bfs_distances(g, 0)
    assert row[:3] == [0, 1, 1]
    assert row[3:] == [None, None, None]


def test_worked_example_row_matches_reference():
    g = worked_example()
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 2, 1]
    assert bfs_distances(g, 0) == floyd_warshall(g)[0]


def test_start_out_of_range():
    with pytest.raises(ValueError):
        bfs_distances(cycle(3), 3)


def test_empty_graph_matrix():
    d = distance_matrix(Graph(3))
    assert all(d[v][v] == 0 for v in range(3))
    assert all(d[u][w] is None for u in range(3) for w in range(3) if u != w)


def test_complete_graph_matrix():
    d = distance_matrix(complete(4))
    assert all(d[u][w] == 1 for u in range(4) for w in range(4) if u != w)


def test_worked_example_specific_entries():
    d = distance_matrix(worked_example())
    assert d[1][4] == 3
    assert d[1][5] == 2
    assert d[3][5] == 2
    assert d == tuple(zip(*d))  # symmetric


@settings(max_examples=30)
@given(st.integers(0, 2**30))
def test_agreement_with_floyd_warshall(seed):
    g = random_graph(random.Random(seed), max_n=30)
    d = distance_matrix(g)
    assert [list(row) for row in d] == floyd_warshall(g)


@settings(max_examples=30)
@given(st.integers(0, 2**30))
def test_matrix_invariants(seed):
    g = random_graph(random.Random(seed), max_n=12)
    d = distance_matrix(g)
    for u in range(g.n):
        assert d[u][u] == 0
        for w in range(g.n):
            assert d[u][w] == d[w][u]
            assert (d[u][w] == 1) == (w in g.adjacency[u])
    for u, w, x in combinations(range(g.n), 3):
        duw, dwx, dux = d[u][w], d[w][x], d[u][x]
        if duw is not None and dwx is not None:
            assert dux is not None and dux <= duw + dwx


@settings(max_examples=25)
@given(st.integers(0, 2**30))
def test_permutation_equivariance(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_n=12)
    p = Permutation.random(g.n, rng)
    d = distance_matrix(g)
    dp = distance_matrix(permute(g, p))
    for u in range(g.n):
        for w in range(g.n):
            assert dp[p[u]][p[w]] == d[u][w]
