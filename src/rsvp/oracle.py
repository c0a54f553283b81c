"""Exact isomorphism search for small graphs.

The search is meant as ground truth at test scale (n up to ~16 in general),
not as a competitor to industrial solvers; the worst case is exponential.
With a budget it runs at any size and gives up instead, which is how
``rsvp_compare`` uses it. Refinement starts from each vertex's distance
profile, so most regular graphs split before any candidate is tried.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .graphs import Graph, Permutation, disjoint_union, verify_mapping
from .refinement import color_refinement

# exact search is refused above this vertex count unless forced
ORACLE_SIZE_LIMIT = 16

# the smallest profile radius at which rsvp_compare's first search proves all
# 275 iso compare-mixed rows of perfbench seeds 1-5 (1: 167, 2: 263, 3: 273);
# path(1500)'s profiles take 5 ms here and 1.6 s unbounded (2-vCPU VM)
_PROFILE_RADIUS = 4


class SearchBudgetExceeded(Exception):
    """A budgeted search gave up before it could prove either answer."""


def _bfs_order(g: Graph) -> list[int]:
    # components in min-id order, FIFO within; keeps every prefix as
    # connected as possible so adjacency pruning bites early
    seen = [False] * g.n
    order: list[int] = []
    head = 0  # the order is its own queue: order[head:] is seen, not expanded
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    return order


def _distance_profiles(g: Graph) -> list[tuple[int, ...]]:
    """Sphere sizes |S_1(v)|, ..., |S_k(v)| of each v, k = min(radius, ecc v)."""
    balls = [1 << v for v in range(g.n)]
    profiles: list[list[int]] = [[] for _ in range(g.n)]
    for _ in range(_PROFILE_RADIUS):
        # grow every ball from the last round's; a ball that stopped growing
        # holds its vertex's whole component and never grows again
        last = balls[:]
        for v in range(g.n):
            ball = last[v]
            for u in g.adjacency[v]:
                ball |= last[u]
            if ball != last[v]:
                profiles[v].append((ball ^ last[v]).bit_count())
                balls[v] = ball
    return [tuple(p) for p in profiles]


def find_isomorphism(g1: Graph, g2: Graph, budget: int | None = None,
                     anchor: int | None = None) -> Permutation | None:
    """Exact: a verified isomorphism if one exists, else None.

    Backtracking over vertex assignments with adjacency consistency pruning,
    seeded by joint color refinement classes started from the (invariant)
    distance profiles; candidate order is ascending ids, so failures
    reproduce exactly. ``anchor=w`` individualises g1's vertex 0 and g2's
    vertex w on top of the profiles, so only mappings that send 0 to w are
    tried; None from an anchored call proves nothing. With a ``budget``,
    each candidate stream opened for a vertex charges its class size up
    front, and opening one after the charges have passed the budget raises
    SearchBudgetExceeded.
    """
    if anchor is not None and anchor not in range(g2.n):
        raise ValueError(f"anchor must be a vertex of g2, 0..n-1 with n = {g2.n}; got {anchor!r}")
    p1, p2 = _distance_profiles(g1), _distance_profiles(g2)
    # refinement only splits classes, so unequal start histograms stay so;
    # a profile starts with its vertex's degree (an isolated vertex's is
    # empty), so equal histograms also mean equal n, degrees and m
    if Counter(p1) != Counter(p2):
        return None
    n = g1.n
    if n == 0:
        return Permutation(())
    start: list = p1 + p2
    if anchor is not None:
        start = [(p, i in (0, n + anchor)) for i, p in enumerate(start)]
    colors = color_refinement(disjoint_union(g1, g2), start).colors
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
    result = Permutation(mapping)
    if not verify_mapping(g1, g2, result):
        raise RuntimeError("oracle search produced a mapping that is not an isomorphism")
    return result
