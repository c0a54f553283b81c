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
from typing import Iterator, NamedTuple

from .graphs import Graph


class Group(NamedTuple):
    """Aggregated records for one target at one distance from the source."""

    hop: int  # distance from the deleted source vertex
    count: int  # contributing start traversals at this hop
    parents: tuple[int, ...]  # sorted union of parents across traversals


@dataclass(frozen=True, eq=False)
class HopParentIndex:
    """Per-target groups for one source vertex, kept as the layered bitsets
    the traversals produced.

    ``layers[k]``, ``reached[k]`` and ``counters[k]`` are, merged over the
    starts, the union of the layers L_k, the union of N(L_k), and the
    bit-sliced per-vertex count of starts whose N(L_k) holds the vertex;
    ``rows`` are the graph's own adjacency bitsets. No layer holds the
    source, so a target's parents ``rows[t] & layer`` never do either.
    ``classes`` walks the layers one count class at a time, and ``groups``
    is decoded from that walk on first use: ``groups[t]`` is ordered by
    strictly increasing hop, and targets that no traversal reached, and the
    source itself, get an empty tuple. Two indexes are equal when their
    sources and groups are.
    """

    source: int
    rows: tuple[int, ...] = field(repr=False)
    layers: tuple[int, ...] = field(repr=False)
    reached: tuple[int, ...] = field(repr=False)
    counters: tuple[tuple[int, ...], ...] = field(repr=False)

    def classes(self) -> Iterator[tuple[int, int, int, int]]:
        """``(hop, count, targets, layer)`` for every nonempty count class,
        hop ascending: ``targets`` is the bitset of the vertices that exactly
        ``count`` starts reach at ``hop``, and target t's parents are
        ``rows[t] & layer``. A layer's targets are split down the counter's
        bit slices, so the cost is per class, not per target."""
        for k, (layer, targets, counter) in enumerate(
                zip(self.layers, self.reached, self.counters)):
            parts = [(0, targets)]
            for i, digit in enumerate(counter):
                split = []
                for count, bits in parts:
                    if ones := bits & digit:
                        split.append((count | 1 << i, ones))
                    if zeros := bits & ~digit:
                        split.append((count, zeros))
                parts = split
            for count, bits in parts:
                yield k + 2, count, bits, layer

    @cached_property
    def groups(self) -> tuple[tuple[Group, ...], ...]:
        rows = self.rows
        per_target: list[list[Group]] = [[] for _ in rows]
        for hop, count, targets, layer in self.classes():
            for t in members(targets):
                per_target[t].append(Group(hop, count, members(rows[t] & layer)))
        return tuple(map(tuple, per_target))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HopParentIndex):
            return NotImplemented
        return self.source == other.source and self.groups == other.groups


def _add_to_counter(counter: list[int], bits: int) -> None:
    # bit-sliced counter: counter[i] holds bit i of every vertex's count, so
    # adding one to each vertex in ``bits`` is a ripple-carry over the slices
    for i, digit in enumerate(counter):
        counter[i] = digit ^ bits
        bits &= digit
        if not bits:
            return
    counter.append(bits)


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
    without_v = ~(1 << v)

    # per layer k, merged over the starts: the union of L_k, the union of
    # N(L_k), and per vertex the number of starts whose N(L_k) holds it
    layers: list[int] = []
    reached: list[int] = []
    counters: list[list[int]] = []
    for s in g.adjacency[v]:
        frontier = seen = 1 << s
        k = 0
        while frontier:
            near = 0
            rest = frontier
            while rest:
                low = rest & -rest
                near |= rows[low.bit_length() - 1]
                rest ^= low
            near &= without_v  # v is deleted: it joins no layer
            if k == len(layers):
                layers.append(frontier)
                reached.append(near)
                counters.append([near])
            else:
                layers[k] |= frontier
                reached[k] |= near
                _add_to_counter(counters[k], near)
            frontier = near & ~seen
            seen |= frontier
            k += 1

    return HopParentIndex(v, rows, tuple(layers), tuple(reached),
                          tuple(map(tuple, counters)))
