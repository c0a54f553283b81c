from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_pairs, peak_rss_mb, random_graph, shuffled_copy
from rsvp.formats import parse_dimacs, parse_edge_list, to_dimacs
from rsvp.generators import complete, cycle, disjoint_union, path, paley, rook
from rsvp.graphs import Graph, Permutation, _distance_profiles, permute, verify_mapping


def test_constructor_builds_sorted_adjacency():
    g = Graph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adjacency == [[1, 2], [0, 3], [0], [1]]
    assert g.m == 3
    assert len(g.adjacency[0]) == 2
    assert 2 in g.adjacency[0] and 3 not in g.adjacency[2]


def test_m_is_half_the_adjacency_mass():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert sum(len(row) for row in g.adjacency) == 2 * g.m


INVALID_EDGES = [
    (3, [(0, 0)], r"self-loop at vertex 0"),
    (3, [(0, 1), (1, 0)], r"duplicate edge \(1, 0\)"),
    (3, [(0, 3)], r"edge \(0, 3\) out of range for n=3"),
    (2, [(-1, 0)], r"edge \(-1, 0\) out of range for n=2"),
    # two faults: the first bad edge in input order is the one named, and
    # within one edge the range is checked before the self-loop
    (3, [(0, 1), (1, 0), (0, 0)], r"duplicate edge \(1, 0\)"),
    (4, [(0, 0), (0, 4)], r"self-loop at vertex 0"),
    (4, [(0, 4), (0, 0)], r"edge \(0, 4\) out of range for n=4"),
    (3, [(3, 3)], r"edge \(3, 3\) out of range for n=3"),
    (3, [(2, 1), (0, 1), (1, 2), (0, 1)], r"duplicate edge \(1, 2\)"),
]


# ids from the first two columns only (n-edgesK): a regex makes a poor test id
@pytest.mark.parametrize("n,edges,message", INVALID_EDGES,
                         ids=[f"{n}-edges{k}" for k, (n, _, _) in enumerate(INVALID_EDGES)])
def test_constructor_rejects_invalid_edges(n, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(n, edges)


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1)


def test_edges_round_trip():
    g = Graph(6, [(0, 5), (2, 3), (1, 4)])
    assert Graph(6, g.edges()) == g
    assert g.edges() == [(0, 5), (1, 4), (2, 3)]


def test_a_graph_equals_no_other_type():
    assert Graph(1) != 1


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_permutation_inverse_and_identity():
    p = Permutation((2, 0, 1))
    inverse = Permutation(tuple(sorted(range(3), key=p.__getitem__)))
    assert inverse == (1, 2, 0)
    assert [inverse[j] for j in p] == [0, 1, 2]
    assert Permutation(tuple(range(3))) == (0, 1, 2)
    # a permutation is the plain tuple of its images
    assert Permutation((2, 0, 1)) == (2, 0, 1)
    assert list(p) == [2, 0, 1]


def test_permute_identity_is_noop():
    g = random_graph(random.Random(1), max_n=8)
    assert permute(g, Permutation(tuple(range(g.n)))) == g


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


def test_permute_and_verify_mapping_refuse_a_non_bijection():
    with pytest.raises(ValueError, match="not a bijection"):
        permute(Graph(3, [(0, 1)]), (1, 2, 1))
    with pytest.raises(ValueError, match="not a bijection"):
        verify_mapping(path(3), path(3), (0, 1, 0))


@settings(max_examples=150, deadline=None)
@given(graph_pairs(), st.integers(0, 2**30))
def test_verify_mapping_is_the_edge_set_definition(pair, seed):
    g, h = pair
    if g.n != h.n:
        return
    rng = random.Random(seed)
    twin = shuffled_copy(permute(g, p := Permutation.random(g.n, rng)), rng)
    assert verify_mapping(g, twin, p)
    f = Permutation.random(g.n, rng)
    image = {tuple(sorted((f[u], f[w]))) for u, w in g.edges()}
    assert verify_mapping(g, h, f) == (image == set(h.edges()))


@settings(max_examples=40)
@given(st.integers(0, 2**30), st.integers(2, 10))
def test_permute_then_inverse_restores(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, max_n=n)
    p = Permutation.random(g.n, rng)
    inverse = Permutation(tuple(sorted(range(g.n), key=p.__getitem__)))
    assert permute(permute(g, p), inverse) == g


@settings(max_examples=150, deadline=None)
@given(graph_pairs())
def test_disjoint_union_equals_the_union_built_from_edges(pair):
    g, h = pair
    for left, right in ((g, h), (Graph(0), h), (g, Graph(0)), (Graph(0), Graph(0))):
        union = disjoint_union(left, right)
        shifted = [(u + left.n, w + left.n) for u, w in right.edges()]
        assert union == Graph(left.n + right.n, left.edges() + shifted)
        assert union.m == left.m + right.m == len(union.edges())
        assert all(row == sorted(row) for row in union.adjacency)
        # fresh rows: writing to the union's storage cannot reach g or h
        inputs = {id(row) for row in left.adjacency + right.adjacency}
        assert not inputs & {id(row) for row in union.adjacency}


def test_permute_preserves_degree_multiset():
    rng = random.Random(7)
    g = random_graph(rng, max_n=12)
    p = Permutation.random(g.n, rng)
    assert permute(g, p).degree_sequence() == g.degree_sequence()


def storage_variants() -> list[Graph]:
    """Shuffled rows, a relabeling, disjoint unions, parsed graphs, a star
    (one dense row among sparse ones), isolated vertices, n <= 1: every way
    a graph is built."""
    rng = random.Random(23)
    g = paley(13)
    parsed = parse_dimacs(to_dimacs(rook(3)))
    return [
        shuffled_copy(g, rng),
        permute(g, Permutation.random(g.n, rng)),
        disjoint_union(path(4), complete(3)),
        disjoint_union(shuffled_copy(random_graph(rng, max_n=12), rng), Graph(2)),
        parsed,
        parse_edge_list("7\n0 1\n5 2\n1 2\n"),
        disjoint_union(cycle(5), parsed),
        Graph(12, ((0, leaf) for leaf in range(1, 12))),
        Graph(0),
        Graph(1),
        Graph(3),
    ]


def test_bits_agree_with_adjacency():
    for h in storage_variants():
        assert len(h.bits) == h.n
        assert all(h.bits[u] >> w & 1 == (w in h.adjacency[u])
                   for u in range(h.n) for w in range(h.n))
        assert sum(len(row) for row in h.adjacency) == 2 * h.m
        assert h == Graph(h.n, h.edges())


def test_second_neighbour_bits_count_common_neighbours():
    for h in storage_variants():
        twice, once = h.second
        assert len(twice) == len(once) == h.n
        for s in range(h.n):
            for w in range(h.n):
                common = len(set(h.adjacency[w]) & set(h.adjacency[s]))
                assert twice[s] >> w & 1 == (common >= 2)
                assert once[s] >> w & 1 == (common == 1)


def test_profiles_are_computed_once_per_graph():
    for h in storage_variants():
        assert h.profiles == _distance_profiles(h)
        assert h.profiles is h.profiles


def test_a_dense_graph_loads_without_copies_of_its_edge_set():
    # m = 1,124,250, so a set of the edge tuples alone takes 125 MB, and the
    # bitset rows 281 KB
    load = "from rsvp.generators import graph_from_spec; graph_from_spec('complete:1500')"
    assert peak_rss_mb(load) < 100
