"""Exact isomorphism search for small graphs.

The search is meant as ground truth at test scale (n up to ~16 in general),
not as a competitor to industrial solvers; the worst case is exponential.
With a budget it runs at any size and gives up instead, which is how
``rsvp_compare`` uses it. Refinement starts from each vertex's distance
profile, so most regular graphs split before any candidate is tried; the
two graphs are refined together by ``color_refinement``'s pair form, with
no union graph built. The profiles are ``Graph.profiles``, computed once
per graph, so both of ``rsvp_compare``'s searches, the orbit search and
bench's oracle column read the same list.

``find_isomorphism`` (``rsvp_compare``'s first search and its anchored one)
and the orbit search run one candidate stream, ``_match``; only its
candidate order and budget unit differ. ``_orbits`` looks for automorphisms
that send the least vertex of each profile cell to each other member, under
a budget of streams opened, and joins the orbits of every one it finds;
``_signatures`` (certify and compare) computes one line per orbit it proves.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from itertools import chain

from .graphs import Graph, Permutation, verify_mapping
from .refinement import _refine_once, color_refinement

# exact search is refused above this vertex count unless forced
ORACLE_SIZE_LIMIT = 16

# candidate streams, per vertex, that one automorphism search may open and
# that all of one graph's searches may open together; relabeled paley:61 and
# paley:101 run out of the first, every certify-sparse and certify-dense
# graph of perfbench seed 1 gets all its orbits within both
_ORBIT_SEARCH_STREAMS = 4
_ORBIT_GRAPH_STREAMS = 8


class SearchBudgetExceeded(Exception):
    """A budgeted search gave up before it could prove either answer."""


def _bfs_order(g: Graph, start: int = 0) -> list[int]:
    # components in id order from ``start`` round, FIFO within; keeps every
    # prefix as connected as possible so adjacency pruning bites early
    seen = [False] * g.n
    order: list[int] = []
    head = 0  # the order is its own queue: order[head:] is seen, not expanded
    for root in chain(range(start, g.n), range(start)):
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


def _depth_first(order: list[int], extend: Callable[[int], Iterator[int]]) -> bool:
    """Map the vertices of ``order`` in turn, depth first: ``extend(u)`` is
    the stream of u's candidates, each yielded once u is mapped to it and
    undone when the stream resumes. True once the last vertex is mapped, with
    every stream left suspended so the mapping stands; False when the first
    stream runs dry."""
    # an explicit stack, one candidate stream per mapped prefix of ``order``,
    # so path-like graphs of any length fit
    stack = [extend(order[0])]
    while stack:
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(stack) == len(order):
            return True
        else:
            stack.append(extend(order[len(stack)]))
    return False


def _match(g1: Graph, g2: Graph, order: list[int], cells: list[int], mapping: list[int],
           shift: int, charge: Callable[[int], None]) -> Permutation | None:
    """Extend ``mapping`` (g2's vertex for each of g1's, -1 while unmapped)
    over ``order`` depth first: a verified isomorphism, or None once the
    search runs dry.

    Each u maps to a free member of ``cells[u]``, a bitset of g2's vertices,
    whose mapped neighbours are exactly the images of u's. Candidates are
    tried ascending when ``shift`` is 0, else from (u + shift) mod n up and
    round. ``charge(cells[u])`` runs as each candidate stream opens and may
    raise SearchBudgetExceeded.
    """
    n = g1.n
    adj, rows = g1.adjacency, g2.bits
    used = sum(1 << v for v in mapping if v >= 0)  # bitset of the images mapped so far

    def extend(u: int) -> Iterator[int]:
        # maps u to each candidate in turn; resuming undoes the previous choice
        nonlocal used
        cell = cells[u]
        charge(cell)
        images = 0
        pool = cell & ~used
        for x in adj[u]:
            image = mapping[x]
            if image >= 0:
                images |= 1 << image
                pool &= rows[image]
        first = (u + shift) % n if shift else 0
        above = pool >> first << first
        for part in (above, pool ^ above):
            while part:
                bit = part & -part
                part ^= bit
                v = bit.bit_length() - 1
                if rows[v] & used != images:
                    continue
                mapping[u] = v
                used |= bit
                yield v
                mapping[u] = -1
                used ^= bit

    if not _depth_first(order, extend):
        return None
    # an explicit raise, so the check also holds under python -O
    result = Permutation(mapping)
    if not verify_mapping(g1, g2, result):
        raise RuntimeError("oracle search produced a mapping that is not an isomorphism")
    return result


def find_isomorphism(g1: Graph, g2: Graph, budget: int | None = None,
                     anchor: int | None = None) -> Permutation | None:
    """Exact: a verified isomorphism if one exists, else None.

    ``_match`` over ``_bfs_order(g1)``, each vertex's candidates its class of
    the joint color refinement of the pair (``color_refinement(g1, start,
    g2)``, no union graph) started from the (invariant) distance profiles,
    tried ascending, so failures reproduce exactly. ``anchor=w``
    individualises g1's vertex 0 and g2's vertex w on top of the profiles, so
    only mappings that send 0 to w are tried; None from an anchored call
    proves nothing. With a ``budget``, each candidate stream opened for a
    vertex charges its class size up front, and opening one after the
    charges have passed the budget raises SearchBudgetExceeded.
    """
    if anchor is not None and anchor not in range(g2.n):
        raise ValueError(f"anchor must be a vertex of g2, 0..n-1 with n = {g2.n}; got {anchor!r}")
    p1, p2 = g1.profiles, g2.profiles
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
    colors = color_refinement(g1, start, g2).colors
    c1, c2 = colors[:n], colors[n:]
    if Counter(c1) != Counter(c2):
        return None
    classes: dict[int, int] = {}
    for v, c in enumerate(c2):
        classes[c] = classes.get(c, 0) | 1 << v
    checks = 0  # candidates charged so far

    def charge(cell: int) -> None:
        # charged per stream, not per advance: counting advances would cost
        # about as much as the work it bounds; the stream whose charge
        # passes the budget still runs, the next one raises
        nonlocal checks
        if budget is not None:
            if checks > budget:
                raise SearchBudgetExceeded(f"more than {budget} candidate checks")
            checks += cell.bit_count()

    return _match(g1, g2, _bfs_order(g1), [classes[c] for c in c1], [-1] * n, 0, charge)


def _orbits(g: Graph) -> list[int]:
    """For each vertex v, the least vertex that the automorphisms found prove
    to share v's orbit: v itself unless a search proves otherwise.

    Cells are the distance profiles refined one round, by the
    ``_refine_once`` that ``color_refinement`` runs. For each cell with
    more than one member, ``_match`` tries to send its least member r to
    each member w not yet in r's orbit, over the rest of ``_bfs_order(g, r)``
    with candidates shifted by w - r: where the labels follow a rotation the
    first try is that rotation, and on K_n one search finds an n-cycle
    (ascending tries find only transpositions). Each automorphism found
    joins v with its image, for every v, in a union-find whose roots are the
    least members. One search opens at most ``_ORBIT_SEARCH_STREAMS`` * n
    candidate streams, all of them together ``_ORBIT_GRAPH_STREAMS`` * n; a
    cell stops at its first failed search, all cells when the graph's
    streams run out.
    """
    n = g.n
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    profiles = g.profiles
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    if len(rank) == n:
        return root
    [colors] = _refine_once([g], [[rank[p] for p in profiles]])
    cells: dict[int, int] = {}
    for v, c in enumerate(colors):
        cells[c] = cells.get(c, 0) | 1 << v
    cell_of = [cells[c] for c in colors]
    # candidate streams opened so far, over every search, and the count at
    # which the current search gives up
    spent = stop = 0

    def charge(cell: int) -> None:
        nonlocal spent
        spent += 1
        if spent == stop:
            raise SearchBudgetExceeded(f"{stop} candidate streams")

    for r in range(n):
        cell = cell_of[r]
        if cell & -cell != 1 << r or cell == 1 << r:
            continue  # r is not the least member of a cell with others
        order = _bfs_order(g, r)[1:]
        others = cell ^ 1 << r
        while others and spent < _ORBIT_GRAPH_STREAMS * n:
            w = (others & -others).bit_length() - 1
            others ^= 1 << w
            if find(w) == r:
                continue
            stop = min(spent + _ORBIT_SEARCH_STREAMS * n, _ORBIT_GRAPH_STREAMS * n)
            mapping = [-1] * n
            mapping[r] = w
            try:
                sigma = _match(g, g, order, cell_of, mapping, w - r, charge)
            except SearchBudgetExceeded:
                sigma = None
            if sigma is None:
                break
            for v, image in enumerate(sigma):
                a, b = find(v), find(image)
                if a != b:
                    root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]
