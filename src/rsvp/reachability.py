"""Vertex-deleted multi-source reachability and the per-vertex hop-parent index.

For a vertex ``v``, every neighbor ``s`` of ``v`` starts one breadth-first
traversal of the graph with ``v`` (and its incident edges) removed. Vertex
sets are ``int`` bitsets (bit ``u`` is vertex ``u``). With ``L_k`` the layer
at distance ``k`` from ``s``, every target ``t`` in ``N(L_k)`` is recorded
behind its parents ``N(t) & L_k``: all of them, so the longer "around the
back" routes that plain BFS trees discard are kept alongside the shortest
ones. The per-start layers are merged into one index keyed on the distance
from ``v`` itself, at a cost of one row union per reached vertex and a few
bitwise operations per layer, never one step per edge.

The result is a function of the edge set alone, so reordering adjacency
storage cannot change it. Relabeling the graph relabels the index
(equivariance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .graphs import Graph


class Group(NamedTuple):
    """Aggregated records for one target at one distance from the source."""

    hop: int  # distance from the deleted source vertex
    count: int  # contributing start traversals at this hop
    parents: tuple[int, ...]  # sorted union of parents across traversals


@dataclass(frozen=True, eq=False)
class HopParentIndex:
    """The per-target groups of one source, as its list of count classes.

    ``classes`` holds ``(hop, count, targets, layer)`` for every nonempty
    count class, hop ascending: ``targets`` is the bitset of the vertices
    that exactly ``count`` starts reach at ``hop``, and ``layer`` is the
    union, over the starts, of the layers L_{hop-2}. Within a hop the
    classes are disjoint. ``rows`` are the graph's own adjacency bitsets,
    so target t's parents are ``rows[t] & layer``; no layer holds the
    source, so they never do either. ``groups`` is decoded from the classes
    on first use: ``groups[t]`` is ordered by strictly increasing hop, and
    targets that no traversal reached, and the source itself, get an empty
    tuple. Equality is identity; compare ``groups`` to compare two indexes.
    """

    rows: list[int] = field(repr=False)
    classes: list[tuple[int, int, int, int]] = field(repr=False)

    @cached_property
    def groups(self) -> tuple[tuple[Group, ...], ...]:
        rows = self.rows
        per_target: list[list[Group]] = [[] for _ in rows]
        for hop, count, targets, layer in self.classes:
            for t in members(targets):
                per_target[t].append(Group(hop, count, members(rows[t] & layer)))
        return tuple(map(tuple, per_target))


def members(bits: int) -> tuple[int, ...]:
    """The vertices of a bitset, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def aggregate_hp(g: Graph, v: int) -> HopParentIndex:
    """The hop-parent index of ``v``: for every target, one group per hop.

    For each start ``s`` in N(v), with L_k the layer at distance k from ``s``
    in ``g - v``, every target t in N(L_k) gets a record at hop k + 2 (one
    edge from ``v`` to ``s``, k layers, one edge to ``t``) with parents
    N(t) & L_k. Within a (target, hop) group the parents are unioned over
    the starts and the count is the number of starts that contributed. A
    vertex of degree 0 gets an index that is empty for every target.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    rows = g.bits
    twice, once = g.second
    without_v = ~(1 << v)  # v is deleted: it joins no layer
    off_v = ~rows[v]

    # per layer k, merged over the starts: the union of L_k, and per vertex
    # the number of starts whose N(L_k) holds it
    layers: list[int] = []
    counters: list[list[int]] = []
    for s in g.adjacency[v]:
        frontier = seen = 1 << s
        near = rows[s] & without_v
        k = 0
        while frontier:
            if k == len(layers):
                layers.append(frontier)
                counters.append([near])
            else:
                layers[k] |= frontier
                # bit-sliced counter: counter[i] holds bit i of every vertex's
                # count, so adding one to each vertex in ``near`` is a
                # ripple-carry over the slices
                counter = counters[k]
                carry = near
                for i, digit in enumerate(counter):
                    counter[i] = digit ^ carry
                    carry &= digit
                    if not carry:
                        break
                else:
                    counter.append(carry)
            frontier = near & ~seen
            seen |= frontier
            k += 1
            if k == 1:
                # L_1 = N(s) - v, and a vertex is next to it iff it has two
                # neighbours in N(s), or one that is not v: no row union
                near = (twice[s] | once[s] & off_v) & without_v
            else:
                near = 0
                rest = frontier
                while rest:
                    u = rest.bit_length() - 1
                    near |= rows[u]
                    rest ^= 1 << u
                near &= without_v

    # a layer's targets, split down its counter's bit slices: the cost is per
    # class, not per target. A counter with one slice never carried: every
    # target it holds has count 1
    classes = []
    for k, (layer, counter) in enumerate(zip(layers, counters)):
        if len(counter) == 1:
            if counter[0]:
                classes.append((k + 2, 1, counter[0], layer))
            continue
        targets = 0
        for digit in counter:
            targets |= digit
        parts = [(0, targets)]
        for i, digit in enumerate(counter):
            split = []
            for count, bits in parts:
                if ones := bits & digit:
                    split.append((count | 1 << i, ones))
                if zeros := bits & ~digit:
                    split.append((count, zeros))
            parts = split
        classes.extend((k + 2, count, bits, layer) for count, bits in parts)
    return HopParentIndex(rows, classes)
