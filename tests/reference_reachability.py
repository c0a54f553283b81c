"""Per-edge reference implementation of the hop-parent index.

This is the original entry-list formulation: one BFS per start in the
vertex-deleted graph, one emitted entry per surviving edge endpoint, and a
fold of the entries into per-(target, hop) sets. The shipped
``rsvp.reachability.aggregate_hp`` computes the same groups with bitset
layers; tests compare the two and pin the emission rule here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from rsvp.graphs import Graph
from rsvp.reachability import Group


class TraversalEntry(NamedTuple):
    """One reachability record from a single-start traversal."""

    target: int
    hop: int  # distance of `parent` from the start, plus one
    parent: int


@dataclass(frozen=True)
class ReferenceIndex:
    source: int
    groups: tuple[tuple[Group, ...], ...]


def _deleted_bfs_distances(g: Graph, v: int, s: int) -> list[int | None]:
    # BFS from s in g with vertex v blocked
    dist: list[int | None] = [None] * g.n
    dist[s] = 0
    queue = deque([s])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if w != v and dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def deleted_neighborhood_bfs(g: Graph, v: int, s: int) -> list[TraversalEntry]:
    """Traverse ``g - v`` from start ``s`` and emit reachability entries.

    With d() the BFS distances from ``s`` in the deleted graph, every edge
    (u, t) of ``g - v`` yields an entry (target=t, hop=d(u)+1, parent=u) when
    d(u) is finite, and symmetrically for the other endpoint. Each edge is
    therefore recorded at most twice, once per endpoint.
    """
    if s not in g.adjacency[v]:
        raise ValueError(f"start {s} is not a neighbor of deleted vertex {v}")
    dist = _deleted_bfs_distances(g, v, s)
    entries: list[TraversalEntry] = []
    adjacency = g.adjacency
    for t in range(g.n):
        if t == v:
            continue
        for u in adjacency[t]:
            if u == v:
                continue
            du = dist[u]
            if du is not None:
                entries.append(TraversalEntry(t, du + 1, u))
    return entries


def aggregate_hp(g: Graph, v: int) -> ReferenceIndex:
    """Fold the per-start entries for ``v`` into (target, hop) groups.

    Entry hops are offset by one (the edge from ``v`` to the start); within a
    group the parents are unioned and the count is the number of distinct
    starts that contributed.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    acc: list[dict[int, tuple[set[int], set[int]]]] = [{} for _ in range(g.n)]
    for s in g.adjacency[v]:
        for t, hop, parent in deleted_neighborhood_bfs(g, v, s):
            bucket = acc[t].get(hop + 1)
            if bucket is None:
                bucket = (set(), set())
                acc[t][hop + 1] = bucket
            bucket[0].add(parent)
            bucket[1].add(s)
    groups = []
    for t in range(g.n):
        per_target = []
        for h in sorted(acc[t]):
            parents, starts = acc[t][h]
            per_target.append(Group(h, len(starts), tuple(sorted(parents))))
        groups.append(tuple(per_target))
    return ReferenceIndex(source=v, groups=tuple(groups))
