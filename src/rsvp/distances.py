"""All-pairs hop distances by repeated breadth-first search.

The matrix is what ``signature.avpd`` and ``signature.signature_element``,
the definition of a signature element, take. Certificates do not use it: the
parents they average over are pairwise at distance 1 or 2, which the edges
among them decide. ``None`` is the explicit unreachable marker inside the
matrix; it is never a numeric sentinel. The convention that an unreachable
pair counts as distance 0 belongs to ``avpd``.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


def bfs_distances(g: Graph, s: int) -> list[int | None]:
    """Minimum hop counts from ``s`` to every vertex (``None`` = unreachable)."""
    if not 0 <= s < g.n:
        raise ValueError(f"start vertex {s} outside 0..{g.n - 1}")
    dist: list[int | None] = [None] * g.n
    dist[s] = 0
    queue = deque([s])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def distance_matrix(g: Graph) -> tuple[tuple[int | None, ...], ...]:
    """Hop distances between all vertex pairs, as the symmetric n x n rows;
    row v is ``bfs_distances(g, v)``."""
    return tuple(tuple(bfs_distances(g, v)) for v in range(g.n))
