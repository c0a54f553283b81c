"""Round-by-round reference implementation of colour refinement.

This is the original loop: it refines until a round returns the colouring
it was given, so it always ends with one confirming round. The shipped
``rsvp.refinement.color_refinement`` stops at the first round that leaves
the class count unchanged; tests compare the two.
"""

from __future__ import annotations

from collections.abc import Sequence

from rsvp.graphs import Graph
from rsvp.refinement import Coloring


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
