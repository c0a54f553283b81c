"""Deterministic graph generators for the families used by the test harness."""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from functools import partial
from itertools import combinations
from math import comb, isqrt

from .formats import MAX_VERTICES
from .graphs import Graph, Permutation, permute

_REGULAR_PAIRING_ATTEMPTS = 1000
# tried double-edge switches per pair of the pairing before repair gives up
_SWITCHES_PER_PAIR = 100


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete needs k >= 1")
    return Graph(k, [(u, w) for u in range(k) for w in range(u + 1, k)])


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs k >= 1")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertices of ``h`` are relabeled to g.n..g.n+h.n-1."""
    shifted = [(u + g.n, w + g.n) for u, w in h.edges()]
    return Graph(g.n + h.n, g.edges() + shifted)


def rook(k: int) -> Graph:
    """k x k rook's graph: cell (i, j) is vertex k*i + j, adjacency along
    shared row or column. Equivalently the line graph of K(k,k); rook(4) is
    the SRG(16, 6, 2, 2) that contains 4-cliques."""
    if k < 1:
        raise ValueError("rook needs k >= 1")
    edges = []
    for i in range(k):
        for j in range(k):
            v = k * i + j
            for jj in range(j + 1, k):
                edges.append((v, k * i + jj))
            for ii in range(i + 1, k):
                edges.append((v, k * ii + j))
    return Graph(k * k, edges)


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)};
    cell (a, b) is vertex 4*a + b. The other SRG(16, 6, 2, 2): no 4-cliques,
    so it is not isomorphic to rook(4) despite identical parameters."""
    deltas = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a in range(4):
        for b in range(4):
            v = 4 * a + b
            for da, db in deltas:
                w = 4 * ((a + da) % 4) + (b + db) % 4
                edges.add((v, w) if v < w else (w, v))
    return Graph(16, edges)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


def paley(q: int) -> Graph:
    """Paley graph of prime order q with q = 1 (mod 4): u ~ w iff u - w is a
    nonzero quadratic residue mod q."""
    if not _is_prime(q):
        raise ValueError(f"paley order {q} is not prime")
    if q % 4 != 1:
        raise ValueError(f"paley order {q} is not 1 mod 4")
    residues = {x * x % q for x in range(1, q)}
    edges = [(u, w) for u in range(q) for w in range(u + 1, q) if (w - u) % q in residues]
    return Graph(q, edges)


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly n vertices and m edges.

    The edges are m distinct positions in the lexicographic list of the
    C(n, 2) pairs, sampled from a ``range`` and decoded, so the list itself
    is never built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    limit = comb(n, 2)
    if not 0 <= m <= limit:
        raise ValueError(f"m={m} outside 0..{limit} for n={n}")
    rng = random.Random(seed)
    edges = []
    for i in rng.sample(range(limit), m):
        # counted from the end, pair i is the r-th, and the pairs whose first
        # vertex is u follow the C(a, 2) pairs of the a = n - 1 - u larger ones
        r = limit - 1 - i
        a = (isqrt(8 * r + 1) + 1) // 2
        edges.append((n - 1 - a, n - 1 - r + a * (a - 1) // 2))
    return Graph(n, edges)


def _edge(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _repair_by_switches(n: int, d: int, stubs: list[int], rng: random.Random) -> Graph:
    """A simple d-regular graph from the pairing ``stubs`` (loops and repeated
    edges allowed), by double-edge switches, which keep every degree.

    A bad pair {u, w} (a loop, or an edge paired more than once) and a random
    pair {x, y} become {u, x} and {w, y}; the switch is kept only if both are
    simple edges not yet present, so each kept switch removes a bad pair.
    """
    pairs = [_edge(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    count = Counter(pairs)
    for _ in range(_SWITCHES_PER_PAIR * len(pairs)):
        bad = [i for i, (u, w) in enumerate(pairs) if u == w or count[u, w] > 1]
        if not bad:
            return Graph(n, pairs)
        i, j = bad[-1], rng.randrange(len(pairs))
        (u, w), (x, y) = pairs[i], pairs[j]
        if rng.random() < 0.5:
            x, y = y, x
        new = _edge(u, x), _edge(w, y)
        if u == x or w == y or new[0] == new[1] or count[new[0]] or count[new[1]]:
            continue
        count.subtract((pairs[i], pairs[j]))
        count.update(new)
        pairs[i], pairs[j] = new
    raise RuntimeError(f"no simple {d}-regular graph found for n={n} by edge switches")


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, rejecting pairings with
    loops or repeated edges. If every attempt fails (likely for d >= 6), the
    last pairing is repaired by double-edge switches, or for d > (n - 1) / 2
    the complement is drawn instead; the result is still a function of the
    seed alone, though no longer exactly uniform."""
    if not 0 <= d < n:
        raise ValueError(f"degree d={d} outside 0..{n - 1}")
    if n * d % 2:
        raise ValueError(f"n*d = {n * d} is odd; no {d}-regular graph on {n} vertices")
    if d == 0:
        return Graph(n)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_REGULAR_PAIRING_ATTEMPTS):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        for i in range(0, len(stubs), 2):
            u, w = stubs[i], stubs[i + 1]
            if u == w:
                break
            key = (u, w) if u < w else (w, u)
            if key in edges:
                break
            edges.add(key)
        else:
            return Graph(n, edges)
    if 2 * d > n - 1:
        # a dense graph leaves switches no room; repair its sparser complement
        complement = set(random_regular(n, n - 1 - d, rng.randrange(1 << 30)).edges())
        return Graph(n, [e for e in combinations(range(n), 2) if e not in complement])
    return _repair_by_switches(n, d, stubs, rng)


def worked_example() -> Graph:
    """Fixed 6-vertex, 7-edge graph used as the golden fixture throughout the
    test suite. Labels are pinned: the documented hop-parent groups and
    signature elements are stated relative to exactly this numbering."""
    return Graph(6, [(0, 1), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)])


# family -> (generator, number of integer parameters in a spec, vertex count
# of those parameters); disjoint_union takes two graphs, given in a spec as
# two nested specs
_FAMILIES = {
    "cycle": (cycle, 1, lambda k: k),
    "complete": (complete, 1, lambda k: k),
    "path": (path, 1, lambda k: k),
    "disjoint_union": (disjoint_union, 0, None),
    "rook": (rook, 1, lambda k: max(k, 0) ** 2),
    "shrikhande": (shrikhande, 0, lambda: 16),
    "paley": (paley, 1, lambda q: q),
    "random_gnm": (random_gnm, 3, lambda n, m, seed: n),
    "random_regular": (random_regular, 3, lambda n, d, seed: n),
    "worked_example": (worked_example, 0, lambda: 6),
}


def _spec_ints(family: str, tokens: list[str], count: int) -> tuple[list[int], list[str]]:
    if len(tokens) < count:
        raise ValueError(f"generator {family!r}: missing parameter")
    try:
        return [int(token) for token in tokens[:count]], tokens[count:]
    except ValueError:
        raise ValueError(f"generator {family!r}: non-integer parameter in "
                         f"{':'.join(tokens[:count])!r}") from None


def _parse_spec(tokens: list[str]) -> tuple[int, Callable[[], Graph], list[str]]:
    """One generator spec from the front of ``tokens``: the vertex count of its
    graph, a call that builds the graph, and the leftover tokens. Nothing is
    built here, so an oversized spec can be refused first."""
    if not tokens:
        raise ValueError("empty generator spec")
    family, rest = tokens[0], tokens[1:]
    if family == "permuted":
        (seed,), rest = _spec_ints(family, rest, 1)
        n, build, rest = _parse_spec(rest)
        return n, lambda: permute(build(), Permutation.random(n, random.Random(seed))), rest
    try:
        fn, arity, order = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted([*_FAMILIES, "permuted"]))
        raise ValueError(f"unknown family {family!r}; known: {known}") from None
    if fn is disjoint_union:
        n_a, build_a, rest = _parse_spec(rest)
        n_b, build_b, rest = _parse_spec(rest)
        return n_a + n_b, lambda: disjoint_union(build_a(), build_b()), rest
    params, rest = _spec_ints(family, rest, arity)
    return order(*params), partial(fn, *params), rest


def graph_from_spec(spec: str) -> Graph:
    """The graph of a colon-separated spec such as ``random_gnm:50:150:7``,
    ``disjoint_union:complete:3:complete:3`` or ``permuted:42:paley:13`` (a
    seeded random relabeling of a spec). A spec of more than ``MAX_VERTICES``
    vertices is refused before anything is built."""
    n, build, leftover = _parse_spec(spec.split(":"))
    if leftover:
        raise ValueError(f"unused generator parameters: {':'.join(leftover)}")
    if n > MAX_VERTICES:
        raise ValueError(f"generator spec {spec!r}: {n} vertices exceed the limit "
                         f"of {MAX_VERTICES}")
    return build()
