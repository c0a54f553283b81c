"""Simple undirected graphs over dense 0-based vertex ids, the permutations
that relabel them, and the graph-level helpers every other module shares."""

from __future__ import annotations

import random
from itertools import compress
from typing import Iterable, Sequence

# largest vertex count a reader or a generator spec accepts: a certificate
# holds n² elements, so even an edgeless graph at the limit certifies to
# 64 MiB of text, and the bitset rows are allocated up front
MAX_VERTICES = 4_096

_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")

# the smallest profile radius at which rsvp_compare's first search proves all
# 275 iso compare-mixed rows of perfbench seeds 1-5 (1: 167, 2: 263, 3: 273);
# path(1500)'s profiles take 5 ms here and 1.6 s unbounded (2-vCPU VM)
_PROFILE_RADIUS = 4


class Graph:
    """Immutable simple undirected graph.

    Vertices are the integers 0..n-1. Each undirected edge is counted once
    in ``m``. ``bits`` is the one store of the edge set, built as the edges
    arrive: bit ``w`` of ``bits[u]`` is set iff u ~ w, n²/8 bytes in all.
    ``adjacency`` is derived from it, each row ascending over one shared
    list of id ints; that order is a storage convention only and no
    algorithm in this package may depend on it (the certificate pipeline is
    tested against shuffled rows).

    ``second`` is the pair ``(twice, once)`` of second-neighbour bitsets,
    built on first use: bit ``w`` of ``twice[s]`` is set iff w has at least
    two neighbours in N(s), and of ``once[s]`` iff it has exactly one. Both
    are lists only to keep per-graph tuple copies off CPython's tuple free
    lists.

    ``profiles`` is each vertex's distance profile, built on first use (see
    ``_distance_profiles``): the start of every exact search on the graph
    and of its orbit search. Nothing may write to ``bits``, ``adjacency``,
    ``second`` or ``profiles``.
    """

    __slots__ = ("n", "m", "bits", "adjacency", "_second", "_profiles")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u}, {w}) out of range for n={n}")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            row = rows[u]
            rows[u] = row | 1 << w
            if rows[u] == row:
                raise ValueError(f"duplicate edge ({u}, {w})")
            rows[w] |= 1 << u
        self._adopt(rows)

    def _adopt(self, rows: list[int]) -> Graph:
        """Take ``rows``, trusted to be symmetric and loop-free, as ``bits``
        and derive the rest: the one tail of ``Graph(n, edges)``, which checks
        each edge first, and of ``disjoint_union``, the readers and
        ``random_regular``."""
        self.n = n = len(rows)
        ids = list(range(n))
        # one C pass over a row's n digits beats a step per neighbour once
        # the row holds more than about 8 + n/16 of them
        dense = 8 + n // 16
        self.adjacency = adjacency = []
        for row in rows:
            if row.bit_count() > dense:
                # bin()'s digits reversed, as bytes 0/1, pick the ids
                neighbours = list(compress(ids, bin(row)[:1:-1].encode().translate(_DIGIT_BITS)))
            else:
                neighbours = []
                while row:
                    top = row.bit_length() - 1
                    neighbours.append(ids[top])
                    row ^= 1 << top
                neighbours.reverse()
            adjacency.append(neighbours)
        self.m = sum(map(len, adjacency)) // 2
        self.bits = rows
        self._second: tuple[list[int], list[int]] | None = None
        self._profiles: list[tuple[int, ...]] | None = None
        return self

    @property
    def second(self) -> tuple[list[int], list[int]]:
        if self._second is None:
            rows = self.bits
            twice: list[int] = []
            once: list[int] = []
            for row in self.adjacency:
                two = one = 0
                for u in row:
                    two |= one & rows[u]
                    one |= rows[u]
                twice.append(two)
                once.append(one & ~two)
            self._second = (twice, once)
        return self._second

    @property
    def profiles(self) -> list[tuple[int, ...]]:
        if self._profiles is None:
            self._profiles = _distance_profiles(self)
        return self._profiles

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, w) pairs with u < w, sorted."""
        return sorted(
            (u, w) for u in range(self.n) for w in self.adjacency[u] if u < w
        )

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(row) for row in self.adjacency))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.bits == other.bits

    __hash__ = None  # adjacency rows are lists

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


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


class Permutation(tuple):
    """Bijection on 0..n-1, as the tuple of images: ``p[i]`` is the image of
    vertex i."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> Permutation:
        self = super().__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise ValueError("mapping is not a bijection on 0..n-1")
        return self

    @classmethod
    def random(cls, n: int, rng: random.Random) -> Permutation:
        xs = list(range(n))
        rng.shuffle(xs)
        return cls(xs)


def permute(g: Graph, p: Sequence[int]) -> Graph:
    """Relabel ``g`` through the bijection ``p``: edge (u, w) becomes (p[u], p[w])."""
    if len(p) != g.n:
        raise ValueError(f"permutation size {len(p)} != vertex count {g.n}")
    p = Permutation(p)
    return Graph(g.n, ((p[u], p[w]) for u in range(g.n) for w in g.adjacency[u] if u < w))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertices of ``h`` are relabeled to g.n..g.n+h.n-1."""
    return Graph.__new__(Graph)._adopt(g.bits + [row << g.n for row in h.bits])


def verify_mapping(g1: Graph, g2: Graph, f: Sequence[int]) -> bool:
    """True iff the bijection ``f`` maps edges to edges and non-edges to non-edges."""
    if len(f) != g1.n or g1.n != g2.n:
        raise ValueError("mapping size does not match the graphs")
    f = Permutation(f)
    return all(g2.bits[f[u]] == sum(1 << f[w] for w in row) for u, row in enumerate(g1.adjacency))
