"""Queue-based reference implementation of the exact search's vertex order.

This is the original breadth-first order with a ``deque`` per component. The
shipped ``rsvp.oracle._bfs_order`` uses the order list as its own queue;
tests compare the two.
"""

from __future__ import annotations

from collections import deque

from rsvp.graphs import Graph


def bfs_order(g: Graph) -> list[int]:
    """Components in min-id order, each breadth first from its least vertex,
    neighbours in adjacency storage order."""
    seen = [False] * g.n
    order: list[int] = []
    for root in range(g.n):
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
