"""Color refinement (1-WL) and the refinement-based comparison baseline.

``color_refinement`` refines one graph, or a pair as their disjoint union
without building it; ``wl_compare`` and the exact searches of ``oracle``
refine every compared pair that way.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .graphs import Graph


@dataclass(frozen=True)
class Coloring:
    """Stable vertex coloring: dense class ids plus the rounds it took.

    The last round counted is the first that splits no class, so a start
    that is already stable takes 1 round (a graph with no vertices, 0).
    """

    colors: tuple[int, ...]
    rounds: int


def _refine_once(graphs: Sequence[Graph], colors: Sequence[list[int]]) -> list[list[int]]:
    """One round over ``graphs`` at once, each vertex keyed against its own
    graph's list in ``colors``: the round refinement takes on their
    disjoint union."""
    # new color = rank of (own color, sorted neighbor colors) among all keys;
    # sorting keys keeps ids canonical under any input ordering
    keys = [
        [(own[v], tuple(sorted(map(own.__getitem__, row)))) for v, row in enumerate(g.adjacency)]
        for g, own in zip(graphs, colors)
    ]
    rank = {key: i for i, key in enumerate(sorted(set().union(*keys)))}
    return [list(map(rank.__getitem__, part)) for part in keys]


def color_refinement(g: Graph, start: Sequence = (), h: Graph | None = None) -> Coloring:
    """Refine ``start``'s sortable vertex labels, else a uniform start, until no class splits.

    With a second graph ``h`` the pair is refined as their disjoint union,
    without building it: ``start`` labels g's vertices, then h's, and the
    colours and rounds equal ``color_refinement(disjoint_union(g, h), start)``.
    """
    graphs = (g,) if h is None else (g, h)
    n = sum(x.n for x in graphs)
    labels = list(start) or [0] * n
    if len(labels) != n:
        total = n if h is None else f"{g.n} + {h.n} = {n}"
        raise ValueError(f"start has {len(labels)} labels for {total} vertices")
    # dense ids in label order, so each round sorts ints and not the labels
    rank = {label: i for i, label in enumerate(sorted(set(labels)))}
    labels = list(map(rank.__getitem__, labels))
    colors = [labels] if h is None else [labels[: g.n], labels[g.n :]]
    count = len(rank)
    rounds = 0
    while n:
        colors = _refine_once(graphs, colors)
        rounds += 1
        # each round refines the last: an unchanged class count split nothing
        last, count = count, len(set().union(*colors))
        if count == last:
            break
    return Coloring(tuple(chain.from_iterable(colors)), rounds)


class WLVerdict(Enum):
    NON_ISOMORPHIC = "non-isomorphic"
    POSSIBLY_ISOMORPHIC = "possibly isomorphic"


def wl_compare(g1: Graph, g2: Graph) -> WLVerdict:
    """Refine the pair jointly, as their disjoint union but without building
    it, and compare per-graph histograms.

    One-sided like the signature test: NON_ISOMORPHIC is definitive,
    POSSIBLY_ISOMORPHIC is not a claim of isomorphism.
    """
    # round 1 colours by degree, and later rounds only split its classes
    if g1.degree_sequence() != g2.degree_sequence():
        return WLVerdict.NON_ISOMORPHIC
    colors = color_refinement(g1, (), g2).colors
    left = Counter(colors[: g1.n])
    right = Counter(colors[g1.n :])
    if left != right:
        return WLVerdict.NON_ISOMORPHIC
    return WLVerdict.POSSIBLY_ISOMORPHIC
