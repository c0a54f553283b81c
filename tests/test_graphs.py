from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, shuffled_copy
from rsvp.generators import complete, disjoint_union, path, paley
from rsvp.graphs import Graph, Permutation, permute


def test_constructor_builds_sorted_adjacency():
    g = Graph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adjacency == [[1, 2], [0, 3], [0], [1]]
    assert g.m == 3
    assert g.degree(0) == 2
    assert g.has_edge(0, 2) and not g.has_edge(2, 3)


def test_m_is_half_the_adjacency_mass():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert sum(len(row) for row in g.adjacency) == 2 * g.m


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(0, 0)]),  # self-loop
        (3, [(0, 1), (1, 0)]),  # duplicate
        (3, [(0, 3)]),  # out of range
        (2, [(-1, 0)]),
    ],
)
def test_constructor_rejects_invalid_edges(n, edges):
    with pytest.raises(ValueError):
        Graph(n, edges)


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1)


def test_edges_round_trip():
    g = Graph(6, [(0, 5), (2, 3), (1, 4)])
    assert Graph(6, g.edges()) == g
    assert g.edges() == [(0, 5), (1, 4), (2, 3)]


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_permutation_inverse_and_identity():
    p = Permutation((2, 0, 1))
    assert p.inverse().mapping == (1, 2, 0)
    assert Permutation.identity(3).mapping == (0, 1, 2)
    assert list(p) == [2, 0, 1]


def test_permute_identity_is_noop():
    g = random_graph(random.Random(1), max_n=8)
    assert permute(g, Permutation.identity(g.n)) == g


def test_permute_complete_graph_is_fixed():
    g = complete(3)
    assert permute(g, Permutation((2, 0, 1))) == g


def test_permute_path_reversal():
    g = path(3)
    h = permute(g, Permutation((2, 1, 0)))
    assert h == g  # P3 reversed is P3 on the same labels
    assert h.degree_sequence() == (1, 1, 2)


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute(path(3), Permutation((0, 1)))


@settings(max_examples=40)
@given(st.integers(0, 2**30), st.integers(2, 10))
def test_permute_then_inverse_restores(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, max_n=n)
    p = Permutation.random(g.n, rng)
    assert permute(permute(g, p), p.inverse()) == g


def test_permute_preserves_degree_multiset():
    rng = random.Random(7)
    g = random_graph(rng, max_n=12)
    p = Permutation.random(g.n, rng)
    assert permute(g, p).degree_sequence() == g.degree_sequence()


def test_bits_agree_with_adjacency():
    rng = random.Random(23)
    g = paley(13)
    for h in (
        shuffled_copy(g, rng),
        permute(g, Permutation.random(g.n, rng)),
        disjoint_union(path(4), complete(3)),
        Graph(0),
        Graph(3),
    ):
        assert len(h.bits) == h.n
        assert all(h.bits[u] >> w & 1 == h.has_edge(u, w)
                   for u in range(h.n) for w in range(h.n))
