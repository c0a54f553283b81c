from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_refinement
from conftest import atlas, random_graph, small_graphs
from rsvp.generators import complete, cycle, disjoint_union, path, rook, shrikhande
from rsvp.graphs import Graph, Permutation, _distance_profiles, permute
from rsvp.oracle import find_isomorphism
from rsvp.refinement import Coloring, WLVerdict, _refine_once, color_refinement, wl_compare


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


def assert_matches_reference(g: Graph, anchor: int) -> None:
    """Uniform start: same colours and rounds as the confirming-round loop.
    Explicit starts (distance profiles, and those with ``anchor``
    individualised): same colours, and at most the confirming round fewer."""
    uniform = color_refinement(g)
    assert uniform == reference_refinement.color_refinement(g)
    profiles = _distance_profiles(g)
    anchored = [(p, v == anchor) for v, p in enumerate(profiles)]
    for start in (profiles, anchored):
        coloring = color_refinement(g, start)
        expected = reference_refinement.color_refinement(g, start)
        assert coloring.colors == expected.colors
        assert expected.rounds - 1 <= coloring.rounds <= expected.rounds


@pytest.mark.parametrize("n", range(7))
def test_refinement_matches_the_reference_on_the_atlas(n):
    for g in atlas(n):
        for anchor in range(max(n, 1)):
            assert_matches_reference(g, anchor)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_refinement_matches_the_reference_on_small_graphs(g, data):
    assert_matches_reference(g, data.draw(st.integers(0, g.n - 1)))


def test_a_start_of_the_wrong_length_is_refused():
    # unchecked, one label too many refines to the unstable (0, 1, 1, 1, 0)
    # and one too few raises a bare IndexError
    for start in ([0] * 5 + [1], [0, 1]):
        with pytest.raises(ValueError, match=f"start has {len(start)} labels for 5 vertices"):
            color_refinement(path(5), start)


def test_a_stable_start_takes_one_round():
    stable = color_refinement(path(5))
    assert stable.rounds == 3  # degree split, centre split, no split
    assert color_refinement(path(5), stable.colors) == Coloring(stable.colors, 1)
    # labels that are stable but not dense ids: the reference confirms them
    # with a second round that returns the first one's colours
    labels = [0, 10, 20, 10, 0]
    assert color_refinement(path(5), labels) == Coloring(stable.colors, 1)
    assert reference_refinement.color_refinement(path(5), labels).rounds == 2


def count_refinements(monkeypatch, module: str) -> list:
    """Record each call made through ``module``'s ``color_refinement``, the
    global that the module calls and that perfbench traces."""
    calls = []
    original = color_refinement

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(f"{module}.color_refinement", counted)
    return calls


def test_wl_compare_decides_different_degrees_without_refining(monkeypatch):
    calls = count_refinements(monkeypatch, "rsvp.refinement")
    assert wl_compare(complete(3), path(3)) is WLVerdict.NON_ISOMORPHIC
    assert calls == []
    assert wl_compare(cycle(6), disjoint_union(complete(3), complete(3))) is WLVerdict.POSSIBLY_ISOMORPHIC
    assert len(calls) == 1


def test_find_isomorphism_decides_different_profiles_without_refining(monkeypatch):
    calls = count_refinements(monkeypatch, "rsvp.oracle")
    # both 2-regular; their distance-4 spheres differ
    assert find_isomorphism(cycle(16), disjoint_union(cycle(8), cycle(8)), budget=0) is None
    # their degrees already differ
    assert find_isomorphism(complete(3), path(3)) is None
    assert calls == []
    # equal profiles: refinement runs once, and then the search decides
    assert find_isomorphism(cycle(6), permute(cycle(6), Permutation((3, 1, 4, 0, 5, 2)))) is not None
    assert len(calls) == 1
