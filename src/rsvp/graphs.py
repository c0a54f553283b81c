"""Simple undirected graphs over dense 0-based vertex ids."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable


class Graph:
    """Immutable simple undirected graph.

    Vertices are the integers 0..n-1. Each undirected edge is counted once
    in ``m``. Adjacency rows are sorted ascending on construction; that is a
    storage convention only and no algorithm in this package may depend on
    row order (the certificate pipeline is tested against shuffled rows).

    ``bits`` holds the same rows as ``int`` bitsets (bit ``w`` of ``bits[u]``
    is set iff u ~ w). It is built on first use, so graphs that never reach
    the signature path never allocate its n²/8 bytes.
    """

    __slots__ = ("n", "m", "adjacency", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        seen: set[tuple[int, int]] = set()
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u}, {w}) out of range for n={n}")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, w) if u < w else (w, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {w})")
            seen.add(key)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, w in seen:
            adjacency[u].append(w)
            adjacency[w].append(u)
        for row in adjacency:
            row.sort()
        self.n = n
        self.m = len(seen)
        self.adjacency = adjacency
        self._bits: tuple[int, ...] | None = None

    @property
    def bits(self) -> tuple[int, ...]:
        if self._bits is None:
            self._bits = tuple(sum(1 << w for w in row) for row in self.adjacency)
        return self._bits

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, w: int) -> bool:
        # linear scan on purpose: stays correct if a row was reordered
        return w in self.adjacency[u]

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
        return self.n == other.n and self.edges() == other.edges()

    __hash__ = None  # adjacency rows are lists

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1; ``mapping[i]`` is the image of vertex i."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on 0..n-1")

    def __len__(self) -> int:
        return len(self.mapping)

    def __getitem__(self, i: int) -> int:
        return self.mapping[i]

    def __iter__(self):
        return iter(self.mapping)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @classmethod
    def random(cls, n: int, rng: random.Random) -> Permutation:
        xs = list(range(n))
        rng.shuffle(xs)
        return cls(tuple(xs))


def permute(g: Graph, p: Permutation) -> Graph:
    """Relabel ``g`` through ``p``: edge (u, w) becomes (p[u], p[w])."""
    if len(p) != g.n:
        raise ValueError(f"permutation size {len(p)} != vertex count {g.n}")
    return Graph(g.n, ((p[u], p[w]) for u, w in g.edges()))
