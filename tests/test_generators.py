from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from rsvp.formats import MAX_VERTICES
from rsvp.generators import (
    _parse_spec,
    complete,
    cycle,
    disjoint_union,
    graph_from_spec,
    paley,
    path,
    random_gnm,
    random_regular,
    rook,
    shrikhande,
    worked_example,
)
from rsvp.graphs import Graph


def srg_parameters(g: Graph) -> tuple[int, int, int, int] | None:
    """Brute-force strongly-regular check: (n, k, lambda, mu) or None."""
    degrees = {len(g.adjacency[v]) for v in range(g.n)}
    if len(degrees) != 1:
        return None
    neighbor_sets = [set(row) for row in g.adjacency]
    lambdas = set()
    mus = set()
    for u, w in combinations(range(g.n), 2):
        common = len(neighbor_sets[u] & neighbor_sets[w])
        (lambdas if w in neighbor_sets[u] else mus).add(common)
    if len(lambdas) != 1 or len(mus) != 1:
        return None
    return (g.n, degrees.pop(), lambdas.pop(), mus.pop())


def has_clique(g: Graph, size: int) -> bool:
    neighbor_sets = [set(row) for row in g.adjacency]
    return any(
        all(w in neighbor_sets[u] for u, w in combinations(group, 2))
        for group in combinations(range(g.n), size)
    )


def test_cycle_basics():
    g = cycle(6)
    assert (g.n, g.m) == (6, 6)
    assert all(len(g.adjacency[v]) == 2 for v in range(6))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_and_path_counts():
    assert complete(5).m == 10
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert path(1).m == 0


def test_disjoint_union_relabels_second_block():
    g = disjoint_union(complete(3), path(2))
    assert (g.n, g.m) == (5, 4)
    assert (3, 4) in g.edges()


def test_shrikhande_is_srg_16_6_2_2_without_4_cliques():
    g = shrikhande()
    assert (g.n, g.m) == (16, 48)
    assert srg_parameters(g) == (16, 6, 2, 2)
    assert not has_clique(g, 4)


def test_rook4_is_srg_16_6_2_2_with_4_clique():
    g = rook(4)
    assert (g.n, g.m) == (16, 48)
    assert srg_parameters(g) == (16, 6, 2, 2)
    assert has_clique(g, 4)


def test_paley_5_is_the_5_cycle():
    assert paley(5) == cycle(5)


def test_paley_13_regularity():
    g = paley(13)
    assert all(len(g.adjacency[v]) == 6 for v in range(13))


@pytest.mark.parametrize("q", [7, 9, 15, 4])
def test_paley_invalid_orders(q):
    with pytest.raises(ValueError):
        paley(q)


def test_random_gnm_exact_counts_and_determinism():
    g = random_gnm(20, 35, seed=5)
    assert (g.n, g.m) == (20, 35)
    assert g.adjacency == random_gnm(20, 35, seed=5).adjacency
    assert g != random_gnm(20, 35, seed=6)
    with pytest.raises(ValueError):
        random_gnm(4, 7, seed=0)


def _random_gnm_from_pair_list(n: int, m: int, seed: int) -> Graph:
    # the construction random_gnm replaced: sample the materialised pair list
    rng = random.Random(seed)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, m))


def test_random_gnm_matches_the_pair_list_construction():
    rng = random.Random(29)
    draws = [(n, m) for n in (0, 1, 2) for m in range(comb(n, 2) + 1)]
    draws += [(n, m) for n in (3, 9, 40) for m in (0, comb(n, 2))]
    for _ in range(300):
        n = rng.randint(0, 50)
        draws.append((n, rng.randint(0, comb(n, 2))))
    for n, m in draws:
        seed = rng.randrange(1 << 30)
        assert random_gnm(n, m, seed).adjacency == _random_gnm_from_pair_list(n, m, seed).adjacency


def test_random_gnm_memory_does_not_grow_with_the_pair_count():
    # C(2000, 2) is about 2M pairs; a handful of edges must not build them
    tracemalloc.start()
    try:
        g = random_gnm(2000, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (2000, 10)
    assert peak < 1_000_000


def test_random_regular_degrees_and_determinism():
    g = random_regular(12, 3, seed=9)
    assert all(len(g.adjacency[v]) == 3 for v in range(12))
    assert g.adjacency == random_regular(12, 3, seed=9).adjacency


def test_random_regular_past_the_pairing_attempts():
    # plain pairing fails all its attempts for d = 6 at n = 200 (seed 1
    # raised before edge-switch repair existed)
    graphs = [random_regular(200, 6, seed) for seed in (1, 2, 3)]
    for seed, g in zip((1, 2, 3), graphs):
        assert g.n == 200 and set(g.degree_sequence()) == {6}
        assert g == random_regular(200, 6, seed)
    assert graphs[0] != graphs[1] != graphs[2]


@pytest.mark.parametrize("n,d", [(8, 7), (10, 7), (12, 9)])
def test_random_regular_dense_degrees(n, d):
    for seed in range(3):
        g = random_regular(n, d, seed)
        assert set(g.degree_sequence()) == {d}
        assert g == random_regular(n, d, seed)


def test_random_regular_invalid_parameters():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)  # d >= n


def test_worked_example_shape():
    g = worked_example()
    assert (g.n, g.m) == (6, 7)
    assert g.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)]


def test_generate_dispatch():
    assert graph_from_spec("cycle:6") == cycle(6)
    assert graph_from_spec("shrikhande") == shrikhande()
    with pytest.raises(ValueError, match="unknown family 'hypercube'; known: complete, "):
        graph_from_spec("hypercube:3")


def test_unknown_family_message_lists_every_family_the_parser_accepts():
    with pytest.raises(ValueError, match="unknown family") as refused:
        graph_from_spec("hypercube:3")
    known = str(refused.value).split("known: ")[1].split(", ")
    assert "permuted" in known and "disjoint_union" in known
    # each listed name is a family; a spec of it alone fails for its
    # parameters at most, never as an unknown family
    for family in known:
        try:
            graph_from_spec(family)
        except ValueError as exc:
            assert "unknown family" not in str(exc)


@pytest.mark.parametrize("spec", [
    "cycle:7", "complete:5", "path:6", "disjoint_union:cycle:3:path:4", "rook:3",
    "shrikhande", "paley:13", "random_gnm:15:40:2", "random_regular:10:3:8",
    "worked_example", "permuted:5:disjoint_union:rook:2:worked_example",
])
def test_spec_vertex_count_is_known_before_building(spec):
    n, build, leftover = _parse_spec(spec.split(":"))
    assert leftover == [] and build().n == n


@pytest.mark.parametrize("spec", [
    f"cycle:{MAX_VERTICES + 1}",
    f"disjoint_union:path:{MAX_VERTICES}:path:1",
    "permuted:1:rook:65",
    "random_gnm:1000000000:0:1",
])
def test_oversized_spec_is_refused_before_building(spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built for an oversized spec")

    monkeypatch.setattr("rsvp.generators.Graph", refuse)
    with pytest.raises(ValueError, match=f"generator spec '{spec}': .* exceed the limit"):
        graph_from_spec(spec)


def test_spec_at_the_vertex_limit_is_built():
    assert graph_from_spec(f"path:{MAX_VERTICES}").n == MAX_VERTICES


def test_negative_rook_order_is_not_reported_as_oversized():
    with pytest.raises(ValueError, match="rook needs k >= 1"):
        graph_from_spec("rook:-100")


def test_generators_pure():
    assert graph_from_spec("random_gnm:10:12:3") == graph_from_spec("random_gnm:10:12:3")
    assert shrikhande().adjacency == shrikhande().adjacency


def test_construction_audit_for_every_family():
    instances = [
        cycle(7),
        complete(5),
        path(6),
        disjoint_union(cycle(3), path(4)),
        rook(3),
        shrikhande(),
        paley(13),
        random_gnm(15, 40, seed=2),
        random_regular(10, 3, seed=8),
        worked_example(),
    ]
    for g in instances:
        assert sum(len(row) for row in g.adjacency) == 2 * g.m
        for v, row in enumerate(g.adjacency):
            assert row == sorted(set(row))  # sorted, no duplicates
            assert v not in row  # no self-loops
            assert all(v in g.adjacency[w] for w in row)  # symmetric
