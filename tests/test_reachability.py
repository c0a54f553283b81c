from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import random_graph, shuffled_copy, small_graphs
from reference_reachability import aggregate_hp as reference_aggregate_hp
from reference_reachability import deleted_neighborhood_bfs
from rsvp.distances import bfs_distances
from rsvp.generators import (
    complete,
    disjoint_union,
    graph_from_spec,
    paley,
    path,
    rook,
    worked_example,
)
from rsvp.graphs import Graph, Permutation, permute
from rsvp.reachability import Group, aggregate_hp, members

# worked_example labels: vertex ids 0..5 stand for v1..v6
# the entry-level emission rule is pinned on the per-edge reference, which
# the bitset kernel must match group for group (see the property below)


def test_traversal_entries_for_target_v4():
    g = worked_example()
    entries = deleted_neighborhood_bfs(g, 0, 1)  # delete v1, start at v2
    assert {(e.hop, e.parent) for e in entries if e.target == 3} == {(2, 2), (4, 4)}


def test_traversal_entries_for_target_v3():
    # frozen from the rule by hand: reference BFS distances from v2 in the
    # deleted graph are d(v2)=0, d(v4)=2, d(v6)=2, so v3's incident edges
    # contribute hops 1, 3, 3
    g = worked_example()
    dist = bfs_distances(Graph(6, [e for e in g.edges() if 0 not in e]), 1)
    assert (dist[1], dist[3], dist[5]) == (0, 2, 2)
    entries = deleted_neighborhood_bfs(g, 0, 1)
    assert {(e.hop, e.parent) for e in entries if e.target == 2} == {
        (1, 1),
        (3, 3),
        (3, 5),
    }


def test_star_center_deletion_leaves_no_entries():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert deleted_neighborhood_bfs(star, 0, 1) == []


def test_start_must_be_a_neighbor():
    with pytest.raises(ValueError):
        deleted_neighborhood_bfs(worked_example(), 0, 3)


@pytest.mark.parametrize("v", [-1, 6])
def test_aggregate_vertex_must_be_in_range(v):
    with pytest.raises(ValueError, match="outside 0..5"):
        aggregate_hp(worked_example(), v)


def test_aggregate_worked_example_target_v3():
    hp = aggregate_hp(worked_example(), 0)
    assert hp.groups[2] == (Group(2, 2, (1, 5)), Group(4, 2, (1, 3, 5)))


def test_aggregate_source_target_is_empty():
    hp = aggregate_hp(worked_example(), 0)
    assert hp.groups[0] == ()


def test_aggregate_unreachable_component_is_empty():
    g = disjoint_union(complete(3), complete(3))
    hp = aggregate_hp(g, 0)
    assert all(hp.groups[t] == () for t in (3, 4, 5))


def test_aggregate_degree_zero_vertex():
    g = Graph(3, [(1, 2)])
    assert all(groups == () for groups in aggregate_hp(g, 0).groups)


def test_order_invariance():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, max_n=10)
        h = shuffled_copy(g, rng)
        for v in range(g.n):
            assert aggregate_hp(g, v).groups == aggregate_hp(h, v).groups


def test_equivariance_under_relabeling():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, max_n=9)
        p = Permutation.random(g.n, rng)
        gp = permute(g, p)
        for v in range(g.n):
            hp = aggregate_hp(g, v)
            hp_p = aggregate_hp(gp, p[v])
            for t in range(g.n):
                mapped = tuple(
                    Group(grp.hop, grp.count, tuple(sorted(p[x] for x in grp.parents)))
                    for grp in hp.groups[t]
                )
                assert hp_p.groups[p[t]] == mapped


def test_group_bounds_and_ordering():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, max_n=10)
        for v in range(g.n):
            hp = aggregate_hp(g, v)
            for t in range(g.n):
                groups = hp.groups[t]
                hops = [grp.hop for grp in groups]
                assert hops == sorted(set(hops))
                for grp in groups:
                    assert 1 <= grp.count <= len(g.adjacency[v])
                    assert grp.parents
                    assert len(grp.parents) <= len(g.adjacency[t])
                    assert set(grp.parents) <= set(g.adjacency[t]) - {v}


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])


def test_tree_targets_have_one_shortest_route_group():
    # on a tree, a target two or more hops away has exactly one group at its
    # tree distance: count 1, parents just the predecessor on the unique path
    rng = random.Random(19)
    for _ in range(15):
        g = random_tree(rng.randint(3, 12), rng)
        v = rng.randrange(g.n)
        dist = bfs_distances(g, v)
        pred = [None] * g.n
        for t in sorted(range(g.n), key=lambda t: dist[t]):
            for u in g.adjacency[t]:
                if dist[u] == dist[t] - 1:
                    pred[t] = u
        hp = aggregate_hp(g, v)
        for t in range(g.n):
            if t == v or dist[t] < 2:
                continue
            matching = [
                grp
                for grp in hp.groups[t]
                if grp.hop == dist[t] and grp.count == 1 and grp.parents == (pred[t],)
            ]
            assert len(matching) == 1


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_bitset_kernel_matches_per_edge_reference(g):
    for v in range(g.n):
        assert aggregate_hp(g, v).groups == reference_aggregate_hp(g, v).groups


@pytest.mark.parametrize(
    "g",
    [complete(17), paley(29), rook(6), graph_from_spec("random_gnm:70:210:5"),
     graph_from_spec("disjoint_union:cycle:40:random_regular:40:3:7")],
    ids=["complete17", "paley29", "rook6", "gnm70", "cycle40+cubic40"])
def test_counters_with_many_bit_slices_match_the_reference(g):
    # start counts up to deg v (10 to 16) need 4-5 counter slices, and n = 70
    # or 80 needs bitsets of three or more 30-bit digits: the 16-vertex
    # property graphs reach neither
    for v in range(g.n):
        assert aggregate_hp(g, v).groups == reference_aggregate_hp(g, v).groups


def broom(handle: int, bristles: int) -> Graph:
    """A path 0..handle with ``bristles`` leaves hung on its last vertex."""
    edges = [(i, i + 1) for i in range(handle)]
    edges += [(handle, handle + 1 + j) for j in range(bristles)]
    return Graph(handle + 1 + bristles, edges)


def bridged_cliques(k: int) -> Graph:
    """Two k-cliques joined by one edge between vertex 0 of each."""
    g = disjoint_union(complete(k), complete(k))
    return Graph(2 * k, g.edges() + [(0, k)])


def test_stranded_vertices_match_the_reference():
    # a vertex whose only neighbour in N(s) is the deleted v itself is not
    # next to the first layer N(s) - v, so it must not be reached from it; on
    # a tree every other neighbour of v is stranded this way
    rng = random.Random(29)
    graphs = [random_tree(rng.randint(2, 14), rng) for _ in range(12)]
    graphs += [broom(4, 5), bridged_cliques(4), bridged_cliques(5)]
    for g in graphs:
        for v in range(g.n):
            assert aggregate_hp(g, v).groups == reference_aggregate_hp(g, v).groups


@pytest.mark.parametrize(("g", "largest_count"),
                         [(path(8), 1), (rook(6), 10), (Graph(4, [(0, 1), (0, 2), (0, 3)]), 1)],
                         ids=["path8", "rook6", "star"])
def test_classes_are_nonempty_and_match_the_counters(g, largest_count):
    # a path's counts are all 1, which takes the one-slice shortcut; rook(6)
    # reaches counts of 8 or more, which need four slices; the star centre's
    # leaves reach nothing, which leaves a layer with no class
    counts = set()
    for v in range(g.n):
        hp = aggregate_hp(g, v)
        reference = reference_aggregate_hp(g, v).groups
        hops = [hop for hop, _, _, _ in hp.classes]
        assert hops == sorted(hops)
        seen: dict[int, int] = {}
        for hop, count, targets, layer in hp.classes:
            assert targets
            assert not targets & seen.get(hop, 0)
            seen[hop] = seen.get(hop, 0) | targets
            for t in members(targets):
                assert Group(hop, count, members(g.bits[t] & layer)) in reference[t]
            counts.add(count)
        assert sum(len(groups) for groups in reference) == sum(
            len(members(targets)) for _, _, targets, _ in hp.classes)
        if len(g.adjacency[v]) == g.n - 1 == g.m:
            assert hp.classes == []
    assert max(counts) == largest_count
