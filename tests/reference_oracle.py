"""Queue-based reference implementation of the exact search's vertex order.

This is the original breadth-first order with a ``deque`` per component. The
shipped ``rsvp.oracle._bfs_order`` uses the order list as its own queue;
tests compare the two.
"""

from __future__ import annotations

from collections import deque

from rsvp.graphs import Graph


def bfs_order(g: Graph, start: int = 0) -> list[int]:
    """Components in id order from ``start`` round, each breadth first from
    its first vertex in that order, neighbours in adjacency storage order."""
    seen = [False] * g.n
    order: list[int] = []
    for root in [*range(start, g.n), *range(start)]:
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order
