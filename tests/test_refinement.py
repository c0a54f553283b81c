from __future__ import annotations

import random
from collections import Counter

from conftest import atlas, random_graph
from rsvp.generators import complete, cycle, disjoint_union, path, rook, shrikhande
from rsvp.graphs import Permutation, permute
from rsvp.refinement import WLVerdict, _refine_once, color_refinement, wl_compare


def test_regular_graph_stays_one_class():
    coloring = color_refinement(complete(3))
    assert set(coloring.colors) == {0}
    assert coloring.rounds <= 3


def test_path_splits_endpoints_from_middle():
    coloring = color_refinement(path(3))
    assert coloring.colors[0] == coloring.colors[2] != coloring.colors[1]
    assert sorted(Counter(coloring.colors).values()) == [1, 2]


def class_sizes(g) -> list[int]:
    return sorted(Counter(color_refinement(g).colors).values())


def test_refinement_failure_pair_has_identical_histograms():
    left = class_sizes(cycle(6))
    right = class_sizes(disjoint_union(complete(3), complete(3)))
    assert left == right == [6]


def test_class_count_monotone_and_stable_within_n_rounds():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, max_n=12)
        colors = [0] * g.n
        counts = [1]
        for _ in range(g.n):
            colors = _refine_once(g, colors)
            counts.append(len(set(colors)))
        assert counts == sorted(counts)
        assert _refine_once(g, colors) == colors  # refining once more: no split
        assert color_refinement(g).rounds <= max(1, g.n)


def test_histogram_permutation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, max_n=12)
        p = Permutation.random(g.n, rng)
        assert class_sizes(g) == class_sizes(permute(g, p))


def test_wl_compare_detects_degree_difference():
    assert wl_compare(complete(3), path(3)) is WLVerdict.NON_ISOMORPHIC


def test_wl_compare_fails_on_srg_pair():
    assert wl_compare(shrikhande(), rook(4)) is WLVerdict.POSSIBLY_ISOMORPHIC


def test_wl_compare_accepts_permuted_pair():
    rng = random.Random(7)
    g = random_graph(rng, max_n=12)
    h = permute(g, Permutation.random(g.n, rng))
    assert wl_compare(g, h) is WLVerdict.POSSIBLY_ISOMORPHIC


def test_wl_compare_different_sizes():
    assert wl_compare(complete(3), complete(4)) is WLVerdict.NON_ISOMORPHIC


def test_joint_refinement_sound_on_small_corpus():
    # never NON_ISOMORPHIC on a genuinely isomorphic pair
    rng = random.Random(9)
    for n in (2, 3, 4, 5):
        for g in atlas(n):
            h = permute(g, Permutation.random(n, rng))
            assert wl_compare(g, h) is WLVerdict.POSSIBLY_ISOMORPHIC


def test_joint_refinement_color_ids_are_dense():
    g = disjoint_union(path(4), cycle(3))
    colors = color_refinement(g).colors
    assert set(colors) == set(range(len(set(colors))))
    histogram = Counter(colors)
    assert sum(histogram.values()) == g.n
