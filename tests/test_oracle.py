from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_pairs, random_graph, shuffled_copy
from rsvp.generators import complete, cycle, disjoint_union, path, rook, shrikhande
from rsvp.graphs import Graph, Permutation, permute
from rsvp.oracle import exhaustive_corpus, find_isomorphism
from rsvp.refinement import WLVerdict, wl_compare
from rsvp.signature import (
    CertificatesEqual,
    NonIsomorphic,
    certificate,
    rsvp_compare,
    verify_mapping,
)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_finds_and_verifies_constructed_isomorphisms():
    rng = random.Random(1)
    for _ in range(30):
        g = random_graph(rng, max_n=12)
        h = permute(g, Permutation.random(g.n, rng))
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert verify_mapping(g, h, mapping)


def test_unverified_mapping_raises(monkeypatch):
    # the final check is an explicit raise, so it also holds under python -O
    monkeypatch.setattr("rsvp.oracle.verify_mapping", lambda g1, g2, f: False)
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        find_isomorphism(cycle(5), cycle(5))


def test_long_paths_do_not_exhaust_the_stack():
    g = path(1500)
    h = permute(g, Permutation.random(g.n, random.Random(4)))
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert verify_mapping(g, h, mapping)


def test_connectivity_difference():
    assert find_isomorphism(cycle(6), disjoint_union(complete(3), complete(3))) is None


def test_srg_pair_is_non_isomorphic_with_witness():
    assert find_isomorphism(shrikhande(), rook(4)) is None
    # independent certification: a 4-clique exists only in the rook's graph
    def cliques4(g: Graph) -> int:
        neighbor_sets = [set(row) for row in g.adjacency]
        return sum(
            all(w in neighbor_sets[u] for u, w in combinations(group, 2))
            for group in combinations(range(g.n), 4)
        )

    assert cliques4(rook(4)) > 0 == cliques4(shrikhande())


def test_size_gates():
    assert find_isomorphism(complete(3), complete(4)) is None
    assert find_isomorphism(complete(3), cycle(3)) is not None


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_corpus_class_counts(n, count):
    corpus = exhaustive_corpus(n)
    assert len(corpus) == count
    assert all(g.n == n for g in corpus)


def test_corpus_on_three_vertices_is_the_known_list():
    corpus = exhaustive_corpus(3)
    assert sorted(g.m for g in corpus) == [0, 1, 2, 3]


def test_corpus_duplicate_free():
    for n in (3, 4, 5):
        corpus = exhaustive_corpus(n)
        for g, h in combinations(corpus, 2):
            assert find_isomorphism(g, h) is None


def test_corpus_sampled_mode_is_deterministic():
    a = exhaustive_corpus(10, seed=4)
    b = exhaustive_corpus(10, seed=4)
    assert [g.edges() for g in a] == [g.edges() for g in b]
    assert all(g.n == 10 for g in a)


def test_corpus_rejects_bad_size():
    with pytest.raises(ValueError):
        exhaustive_corpus(0)


def test_agrees_with_networkx_on_random_pairs():
    rng = random.Random(2)
    checked_iso = checked_non = 0
    for _ in range(60):
        g = random_graph(rng, max_n=8)
        if rng.random() < 0.5:
            h = permute(g, Permutation.random(g.n, rng))
        else:
            h = random_graph(rng, max_n=8)
        ours = find_isomorphism(g, h)
        theirs = nx.is_isomorphic(to_networkx(g), to_networkx(h))
        assert (ours is not None) == theirs
        checked_iso += theirs
        checked_non += not theirs
    assert checked_iso and checked_non


def test_methods_never_contradict_oracle_isomorphisms():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for g in exhaustive_corpus(n):
            h = permute(g, Permutation.random(n, rng))
            assert find_isomorphism(g, h) is not None
            assert isinstance(rsvp_compare(g, h), CertificatesEqual)
            assert wl_compare(g, h) is WLVerdict.POSSIBLY_ISOMORPHIC


@settings(max_examples=150, deadline=None)
@given(graph_pairs(), st.randoms(use_true_random=False))
def test_non_isomorphic_verdicts_are_sound(pair, rng):
    g, h = pair
    if isinstance(rsvp_compare(g, h), NonIsomorphic) or wl_compare(g, h) is WLVerdict.NON_ISOMORPHIC:
        assert find_isomorphism(g, h) is None
    twin = shuffled_copy(permute(g, Permutation.random(g.n, rng)), rng)
    assert isinstance(rsvp_compare(g, twin), CertificatesEqual)
    assert certificate(twin) == certificate(g)
