"""Color refinement (1-WL) and the refinement-based comparison baseline."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, disjoint_union


@dataclass(frozen=True)
class Coloring:
    """Stable vertex coloring: dense class ids plus the rounds it took."""

    colors: tuple[int, ...]
    rounds: int


def _refine_once(g: Graph, colors: list[int]) -> list[int]:
    # new color = rank of (own color, sorted neighbor colors) among all keys;
    # sorting keys keeps ids canonical under any input ordering
    keys = [
        (colors[v], tuple(sorted(colors[w] for w in g.adjacency[v])))
        for v in range(g.n)
    ]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def color_refinement(g: Graph, start: Sequence = ()) -> Coloring:
    """Refine ``start``'s sortable vertex labels, else a uniform start, until no class splits."""
    colors = list(start) or [0] * g.n
    rounds = 0
    while g.n:
        new = _refine_once(g, colors)
        rounds += 1
        if new == colors:
            break
        colors = new
    return Coloring(tuple(colors), rounds)


class WLVerdict(Enum):
    NON_ISOMORPHIC = "non-isomorphic"
    POSSIBLY_ISOMORPHIC = "possibly isomorphic"


def wl_compare(g1: Graph, g2: Graph) -> WLVerdict:
    """Refine the disjoint union jointly and compare per-graph histograms.

    One-sided like the signature test: NON_ISOMORPHIC is definitive,
    POSSIBLY_ISOMORPHIC is not a claim of isomorphism.
    """
    union = disjoint_union(g1, g2)
    colors = color_refinement(union).colors
    left = Counter(colors[: g1.n])
    right = Counter(colors[g1.n :])
    if left != right:
        return WLVerdict.NON_ISOMORPHIC
    return WLVerdict.POSSIBLY_ISOMORPHIC
