"""Color refinement (1-WL) and the refinement-based comparison baseline."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, disjoint_union


@dataclass(frozen=True)
class Coloring:
    """Stable vertex coloring: dense class ids plus the rounds it took.

    The last round counted is the first that splits no class, so a start
    that is already stable takes 1 round (a graph with no vertices, 0).
    """

    colors: tuple[int, ...]
    rounds: int


def _refine_once(g: Graph, colors: list[int]) -> list[int]:
    # new color = rank of (own color, sorted neighbor colors) among all keys;
    # sorting keys keeps ids canonical under any input ordering
    keys = [
        (colors[v], tuple(sorted(map(colors.__getitem__, row))))
        for v, row in enumerate(g.adjacency)
    ]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return list(map(rank.__getitem__, keys))


def color_refinement(g: Graph, start: Sequence = ()) -> Coloring:
    """Refine ``start``'s sortable vertex labels, else a uniform start, until no class splits."""
    colors = list(start) or [0] * g.n
    if len(colors) != g.n:
        raise ValueError(f"start has {len(colors)} labels for {g.n} vertices")
    count = len(set(colors))
    rounds = 0
    while g.n:
        colors = _refine_once(g, colors)
        rounds += 1
        # each round refines the last: an unchanged class count split nothing
        last, count = count, len(set(colors))
        if count == last:
            break
    return Coloring(tuple(colors), rounds)


class WLVerdict(Enum):
    NON_ISOMORPHIC = "non-isomorphic"
    POSSIBLY_ISOMORPHIC = "possibly isomorphic"


def wl_compare(g1: Graph, g2: Graph) -> WLVerdict:
    """Refine the disjoint union jointly and compare per-graph histograms.

    One-sided like the signature test: NON_ISOMORPHIC is definitive,
    POSSIBLY_ISOMORPHIC is not a claim of isomorphism.
    """
    # round 1 colours by degree, and later rounds only split its classes
    if g1.degree_sequence() != g2.degree_sequence():
        return WLVerdict.NON_ISOMORPHIC
    union = disjoint_union(g1, g2)
    colors = color_refinement(union).colors
    left = Counter(colors[: g1.n])
    right = Counter(colors[g1.n :])
    if left != right:
        return WLVerdict.NON_ISOMORPHIC
    return WLVerdict.POSSIBLY_ISOMORPHIC
