"""Exact isomorphism search for small graphs.

The search is meant as ground truth at test scale (n up to ~16 in general),
not as a competitor to industrial solvers; the worst case is exponential.
With a budget it runs at any size and gives up instead, which is how
``rsvp_compare`` uses it.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator, Sequence

from .graphs import Graph, Permutation, disjoint_union, verify_mapping
from .refinement import color_refinement

# exact search is refused above this vertex count unless forced
ORACLE_SIZE_LIMIT = 16


class SearchBudgetExceeded(Exception):
    """A budgeted search gave up before it could prove either answer."""


def _bfs_order(g: Graph) -> list[int]:
    # components in min-id order, FIFO within; keeps every prefix as
    # connected as possible so adjacency pruning bites early
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


def find_isomorphism(g1: Graph, g2: Graph, budget: int | None = None,
                     colors: Sequence = ()) -> Permutation | None:
    """Exact: a verified isomorphism if one exists, else None.

    Backtracking over vertex assignments with adjacency consistency pruning,
    seeded by joint color refinement classes; candidate order is ascending
    ids, so failures reproduce exactly. ``colors`` (2n sortable labels, g1's
    first) seeds the refinement; None then means no isomorphism respects
    ``colors``, which proves non-isomorphism only when the labels are
    isomorphism-invariant. With a ``budget``, each candidate stream opened
    for a vertex charges its class size up front, and opening one after the
    charges have passed the budget raises SearchBudgetExceeded.
    """
    # equal degree sequences imply equal vertex and edge counts
    if g1.degree_sequence() != g2.degree_sequence():
        return None
    n = g1.n
    if n == 0:
        return Permutation(())

    colors = color_refinement(disjoint_union(g1, g2), colors).colors
    c1, c2 = colors[:n], colors[n:]
    if Counter(c1) != Counter(c2):
        return None
    candidates: dict[int, list[int]] = {}
    for v in range(n):
        candidates.setdefault(c2[v], []).append(v)

    order = _bfs_order(g1)
    adj1 = g1.adjacency
    rows2 = g2.bits
    mapping = [-1] * n
    used = 0  # bitset of the images mapped so far
    checks = 0  # candidates charged so far

    def extend(u: int) -> Iterator[int]:
        # maps u to each of its candidates, ascending, that agrees with the
        # mapping so far; resuming undoes the previous choice
        nonlocal used, checks
        images = sum(1 << mapping[w] for w in adj1[u] if mapping[w] >= 0)
        pool = candidates[c1[u]]
        if budget is not None:
            # charged per stream, not per advance: counting advances would
            # cost about as much as the work it bounds; the stream whose
            # charge passes the budget still runs, the next one raises
            if checks > budget:
                raise SearchBudgetExceeded(f"more than {budget} candidate checks")
            checks += len(pool)
        for v in pool:
            bit = 1 << v
            # v is free and its mapped neighbors are exactly the images of
            # u's; its refinement class already gives it u's degree
            if used & bit or rows2[v] & used != images:
                continue
            mapping[u] = v
            used |= bit
            yield v
            mapping[u] = -1
            used ^= bit

    # depth-first with an explicit stack, one candidate stream per mapped
    # prefix of ``order``, so path-like graphs of any length fit
    stack = [extend(order[0])]
    while stack:
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(stack) == n:
            break
        else:
            stack.append(extend(order[len(stack)]))
    else:
        return None
    result = Permutation(tuple(mapping))
    if not verify_mapping(g1, g2, result):
        raise RuntimeError("oracle search produced a mapping that is not an isomorphism")
    return result
