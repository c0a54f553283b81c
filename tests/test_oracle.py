from __future__ import annotations

import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import atlas, graph_pairs, random_graph, shuffled_copy, small_graphs, wl_uniform_twins
from reference_oracle import bfs_order
from rsvp.distances import bfs_distances
from rsvp.generators import (complete, cycle, disjoint_union, graph_from_spec, paley, path, rook,
                             shrikhande)
from rsvp.graphs import (_PROFILE_RADIUS, Graph, Permutation, _distance_profiles, permute,
                         verify_mapping)
from rsvp.oracle import (_ORBIT_GRAPH_STREAMS, _ORBIT_SEARCH_STREAMS, SearchBudgetExceeded,
                         _bfs_order, _depth_first, _orbits, find_isomorphism)
from rsvp.refinement import WLVerdict, wl_compare
from rsvp.signature import CertificatesEqual, NonIsomorphic, certificate, rsvp_compare


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


def test_budget_runs_out_on_a_wl_uniform_pair():
    # paley:29 is vertex-transitive, so its distance profiles are uniform
    # too and refinement leaves one class
    g = paley(29)
    h = permute(g, Permutation.random(g.n, random.Random(1)))
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(g, h, budget=g.n * g.n)


def test_a_budget_that_suffices_finds_the_unbounded_mapping():
    g, h = wl_uniform_twins()
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert find_isomorphism(g, h, budget=10**6) == mapping


def test_a_budget_counts_class_sizes_and_lets_the_passing_stream_run(monkeypatch):
    # paley:29 leaves one class of 29, so each stream charges 29: the stream
    # whose charge passes the budget still runs, the next one raises
    g = paley(29)
    h = permute(g, Permutation.random(g.n, random.Random(1)))
    searches = count_streams(monkeypatch)
    for budget in (0, 28, 29, g.n * g.n):
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(g, h, budget=budget)
    assert [len(opened) for opened in searches] == [2, 2, 3, 31]


def test_an_anchor_outside_g2_is_refused():
    g = shrikhande()
    h = permute(g, Permutation.random(g.n, random.Random(42)))
    for anchor in (-1, g.n):
        with pytest.raises(ValueError, match="anchor"):
            find_isomorphism(g, h, anchor=anchor)


def test_an_unbudgeted_anchored_search_maps_vertex_0_to_the_anchor():
    # shrikhande is vertex-transitive, so every anchor admits an isomorphism
    g = shrikhande()
    h = permute(g, Permutation.random(g.n, random.Random(42)))
    for w in range(h.n):
        mapping = find_isomorphism(g, h, anchor=w)
        assert mapping is not None and mapping[0] == w
        assert verify_mapping(g, h, mapping)


def sphere_sizes(g: Graph, v: int, radius: int) -> tuple[int, ...]:
    """|S_1(v)|, ..., |S_radius(v)| from one BFS, empty spheres dropped; only
    the spheres past v's eccentricity are empty."""
    dist = bfs_distances(g, v)
    return tuple(size for size in map(dist.count, range(1, radius + 1)) if size)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
@example(Graph(7, [(0, 1), (1, 2), (3, 4)]), random.Random(0))
def test_distance_profiles_are_truncated_sphere_sizes_and_equivariant(g, rng):
    profiles = _distance_profiles(g)
    assert profiles == [sphere_sizes(g, v, _PROFILE_RADIUS) for v in range(g.n)]
    p = Permutation.random(g.n, rng)
    relabeled = _distance_profiles(permute(g, p))
    assert [relabeled[p[v]] for v in range(g.n)] == profiles


def test_distance_profiles_stop_at_the_radius():
    # path(4096) has eccentricities up to 4095; the profiles stop far short
    assert max(map(len, _distance_profiles(path(4096)))) == _PROFILE_RADIUS


def test_search_order_matches_the_queue_reference_on_the_atlas():
    for n in range(1, 8):
        for g in atlas(n):
            assert _bfs_order(g) == bfs_order(g)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
@example(Graph(9, [(2, 3), (3, 4), (0, 5), (5, 6), (6, 0), (4, 2)]))
def test_search_order_matches_the_queue_reference(g):
    # several components, isolated vertices among them, rows in any order
    order = _bfs_order(g)
    assert order == bfs_order(g)
    assert sorted(order) == list(range(g.n))


def test_search_order_from_any_start_matches_the_queue_reference():
    for n in range(1, 7):
        for g in atlas(n):
            for start in range(n):
                order = _bfs_order(g, start)
                assert order == bfs_order(g, start)
                assert order[0] == start


def test_profiles_decide_a_cycle_against_two_before_any_candidate():
    # both graphs are 2-regular, so a uniform start leaves one class and
    # the search would backtrack; their distance-4 spheres differ in size
    assert find_isomorphism(cycle(16), disjoint_union(cycle(8), cycle(8)), budget=0) is None


def test_budgeted_search_never_maps_the_srg_pair():
    try:
        found = find_isomorphism(shrikhande(), rook(4), budget=16 * 16)
    except SearchBudgetExceeded:
        found = None
    assert found is None


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
    # the distance profile histograms are the one gate: they differ with the
    # edge count,
    assert find_isomorphism(path(4), cycle(4)) is None
    # and also where n and m agree
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert (star.n, star.m) == (path(4).n, path(4).m)
    assert find_isomorphism(star, path(4)) is None
    assert find_isomorphism(Graph(0), Graph(0)) == Permutation(())


# graphs on n unlabeled vertices, OEIS A000088; a short atlas would quietly
# shrink every test that walks it
@pytest.mark.parametrize(
    "n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]
)
def test_corpus_class_counts(n, count):
    graphs = atlas(n)
    assert len(graphs) == count
    assert all(g.n == n for g in graphs)


def test_corpus_on_three_vertices_is_the_known_list():
    assert sorted(g.m for g in atlas(3)) == [0, 1, 2, 3]


def test_oracle_separates_distinct_atlas_classes():
    for n in range(7):
        for g, h in combinations(atlas(n), 2):
            assert find_isomorphism(g, h) is None


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
        for g in atlas(n):
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


def automorphism_orbits(g: Graph) -> list[set[int]]:
    """Each vertex's orbit under every automorphism networkx enumerates."""
    h = to_networkx(g)
    orbits = [{v} for v in range(g.n)]
    for sigma in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter():
        for v, image in sigma.items():
            orbits[v].add(image)
    return orbits


def test_orbits_join_only_vertices_that_an_automorphism_joins():
    missed = []
    for n in range(7):
        for g in atlas(n):
            roots = _orbits(g)
            orbits = automorphism_orbits(g)
            for v, root in enumerate(roots):
                assert root <= v and roots[root] == root
                assert root in orbits[v]
            if roots != [min(orbit) for orbit in orbits]:
                missed.append(g)
    # a cell stops at its first failed search, so where one round of
    # refinement leaves two orbits in a cell, the second can be missed: it
    # happens first on 6 vertices, to 2 of the 156 classes
    assert len(missed) <= 2
    assert all(g.n == 6 for g in missed)


def relabeled(spec: str, seed: int) -> Graph:
    return graph_from_spec(f"permuted:{seed}:{spec}")


@pytest.mark.parametrize("spec", ["cycle:7", "cycle:48", "complete:9", "complete:40", "rook:4",
                                  "rook:5", "rook:6", "shrikhande", "paley:13", "paley:17"])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_vertex_transitive_graphs_have_one_root(spec, seed):
    assert set(_orbits(relabeled(spec, seed))) == {0}


def test_relabeled_paley_29_needs_more_streams_than_its_budget_at_some_labels(monkeypatch):
    # labeled, the rotated candidate order maps r to w by the rotation at
    # once; relabeled, a search needs 28 to 164 streams (seeds 0-9) against
    # its 4n = 116, so some labelings keep several roots. With the budgets
    # raised, every one of them proves one orbit
    assert set(_orbits(paley(29))) == {0}
    graphs = [relabeled("paley:29", seed) for seed in range(10)]
    assert max(len(set(_orbits(g))) for g in graphs) > 1
    monkeypatch.setattr("rsvp.oracle._ORBIT_SEARCH_STREAMS", 64)
    monkeypatch.setattr("rsvp.oracle._ORBIT_GRAPH_STREAMS", 128)
    assert all(set(_orbits(g)) == {0} for g in graphs)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_a_relabeled_path_has_one_root_per_mirror_pair(seed):
    g = relabeled("path:25", seed)
    roots = _orbits(g)
    assert len(set(roots)) == 13
    # the mirror image of the path is the one automorphism
    assert roots == [min(orbit) for orbit in automorphism_orbits(g)]


def count_streams(monkeypatch) -> list[list[int]]:
    """One list per search through ``_depth_first``: the vertex of every
    candidate stream it opened."""
    searches: list[list[int]] = []

    def counting(order, extend):
        opened: list[int] = []
        searches.append(opened)

        def counted(u):
            opened.append(u)
            return extend(u)
        return _depth_first(order, counted)

    monkeypatch.setattr("rsvp.oracle._depth_first", counting)
    return searches


@pytest.mark.parametrize("spec", ["permuted:1:paley:101", "random_regular:200:4:1",
                                  "permuted:3:random_regular:200:4:1", "permuted:3:path:100"])
def test_orbit_searches_stay_within_their_budgets(monkeypatch, spec):
    g = graph_from_spec(spec)
    searches = count_streams(monkeypatch)
    _orbits(g)
    assert all(len(opened) <= _ORBIT_SEARCH_STREAMS * g.n for opened in searches)
    assert sum(map(len, searches)) <= _ORBIT_GRAPH_STREAMS * g.n


def test_an_exhausted_graph_budget_stops_every_cell(monkeypatch):
    # three relabeled paley graphs in one, a cell each: the first two cells'
    # searches each run out of their 4n streams, which spends the graph's 8n,
    # so the third cell is never searched
    g = graph_from_spec("disjoint_union:permuted:1:paley:61:"
                        "disjoint_union:permuted:2:paley:53:permuted:1:paley:41")
    searches = count_streams(monkeypatch)
    assert _orbits(g) == list(range(g.n))
    assert [len(opened) for opened in searches] == [_ORBIT_SEARCH_STREAMS * g.n] * 2
    assert sum(map(len, searches)) == _ORBIT_GRAPH_STREAMS * g.n


@pytest.mark.parametrize("g, roots", [
    (Graph(0), []),
    (Graph(1), [0]),
    (Graph(2), [0, 0]),
    (Graph(6), [0] * 6),
    (disjoint_union(Graph(3), complete(2)), [0, 0, 0, 3, 3]),
])
def test_orbits_of_tiny_and_edgeless_graphs(g, roots):
    assert _orbits(g) == roots


def test_search_outcomes_on_the_atlas_are_pinned():
    # every mapping and orbit root that the searches find on the atlas up to
    # 7 vertices and a relabeling of each, as sha256 of their reprs in turn
    rng = random.Random(0)
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in atlas(n):
            k = permute(g, Permutation.random(n, rng))
            digest.update(repr((find_isomorphism(g, k), _orbits(g), _orbits(k))).encode())
    assert digest.hexdigest() == "25a26d184866f50c1f24db3afe717f0cbd4d13d7a4b2c5b4d8ffb3daa7d66b90"


def test_an_unverified_automorphism_raises(monkeypatch):
    monkeypatch.setattr("rsvp.oracle.verify_mapping", lambda g1, g2, f: False)
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        _orbits(cycle(5))
