"""Seeded inputs for the three benchmark workloads.

Every input is derived from ``(workload, seed)`` alone, so the same seed gives
the same graphs, the same relabelings and the same operation order. Graph
*sizes* follow a fixed schedule that interleaves the families across one
continuous range; the seed picks the random instances, the relabelings and
the order. That keeps the latency distribution (and so p50/p90) comparable
across seeds while every seed still exercises different graphs.

The graphs themselves come from ``rsvp.generators`` (set-up only). Relabeling,
DIMACS text and the non-isomorphism labels of ``compare-mixed`` are computed
here, independently of the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from rsvp import generators

WORKLOADS = ("certify-sparse", "certify-dense", "compare-mixed")

# attempts at drawing a candidate pair whose invariants differ
_PAIR_ATTEMPTS = 50


@dataclass(frozen=True)
class Instance:
    """One input graph. Instances that share ``key`` are relabelings of one
    graph, so every isomorphism-invariant count is the same for them."""

    key: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def dimacs(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}"]
        lines.extend(f"e {u + 1} {w + 1}" for u, w in self.edges)
        return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class Op:
    """One timed operation: certify ``graphs[0]``, or compare the two graphs.

    ``group`` names the ops whose output digests must be equal (an op and its
    relabeled twin). ``label`` is the independent verdict of a compare row.
    """

    name: str
    graphs: tuple[Instance, ...]
    group: str
    label: str = ""


def _relabel(key: str, n: int, edges, rng: random.Random) -> Instance:
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = ((perm[u], perm[w]) for u, w in edges)
    return Instance(key, n, tuple(sorted((u, w) if u < w else (w, u)
                                         for u, w in relabeled)))


def _spread(lo: int, hi: int, count: int, slot: int, slots: int) -> list[int]:
    """``count`` sizes over [lo, hi]; family ``slot`` of ``slots`` is offset
    so that the families together cover the range evenly."""
    step = (hi - lo) / count
    return [round(lo + step * (i + (slot + 0.5) / slots)) for i in range(count)]


def _subseed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _certify_ops(bases, rng: random.Random) -> list[Op]:
    # every base graph is certified under ``copies`` independent relabelings
    ops = []
    for name, graph, copies in bases:
        edges = graph.edges()
        for copy in range(copies):
            ops.append(Op(f"{name}-{copy}", (_relabel(name, graph.n, edges, rng),),
                          group=name))
    rng.shuffle(ops)
    return ops


def _certify_sparse(rng: random.Random, tiny: bool) -> list[Op]:
    lo, hi, per_family = (8, 14, 1) if tiny else (16, 48, 11)
    families = ("gnm", "regular3", "regular4", "cycle", "path")
    bases = []
    for slot, family in enumerate(families):
        for n in _spread(lo, hi, per_family, slot, len(families)):
            if family == "gnm":
                graph = generators.random_gnm(n, 3 * n, _subseed(rng))
            elif family == "regular3":
                n += n % 2
                graph = generators.random_regular(n, 3, _subseed(rng))
            elif family == "regular4":
                graph = generators.random_regular(n, 4, _subseed(rng))
            elif family == "cycle":
                graph = generators.cycle(n)
            else:
                graph = generators.path(n)
            bases.append((f"{family}-n{n}", graph, 2))
    return _certify_ops(bases, rng)


def _certify_dense(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        paley, rook, gnm_sizes = ((5, 2), (13, 2)), ((3, 2),), (8,)
    else:
        # (order, relabeled copies): the structured families are few, so
        # each is certified under several labelings
        paley, rook = ((13, 4), (17, 4), (29, 2)), ((4, 4), (5, 4), (6, 2))
        gnm_sizes = _spread(12, 26, 45, 0, 1)
    bases = [(f"paley-q{q}", generators.paley(q), copies) for q, copies in paley]
    bases += [(f"rook-k{k}", generators.rook(k), copies) for k, copies in rook]
    for i, n in enumerate(gnm_sizes):
        graph = generators.random_gnm(n, n * (n - 1) // 4, _subseed(rng))
        bases.append((f"gnm-half-n{n}-{i}", graph, 2))
    return _certify_ops(bases, rng)


def invariant(n: int, edges) -> tuple:
    """Isomorphism invariant used to prove a pair non-isomorphic: the sorted
    per-vertex (BFS layer sizes, triangles at v, 4-cliques at v)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    per_vertex = []
    for v in range(n):
        seen = {v}
        frontier = [v]
        layers = []
        while frontier:
            layers.append(len(frontier))
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        triangles = cliques = 0
        for u, w in combinations(sorted(adj[v]), 2):
            if w in adj[u]:
                triangles += 1
                cliques += sum(1 for x in adj[v] & adj[u] & adj[w] if x > w)
        per_vertex.append((tuple(layers), triangles, cliques))
    return tuple(sorted(per_vertex))


def _degrees(graph) -> list[int]:
    return sorted(len(row) for row in graph.adjacency)


def _separable_pair(draw, rng: random.Random, extra_check=None):
    """Draw candidate pairs until the invariant proves them non-isomorphic."""
    for _ in range(_PAIR_ATTEMPTS):
        a, b = draw(_subseed(rng)), draw(_subseed(rng))
        if extra_check is not None and not extra_check(a, b):
            continue
        if invariant(a.n, a.edges()) != invariant(b.n, b.edges()):
            return a, b
    raise RuntimeError("no separable candidate pair drawn")


def _hard_pairs(max_n: int):
    """Refinement-hard pairs on at most ``max_n`` vertices: C_n against
    C_a + C_(n-a), with shrikhande/rook:4 first."""
    pairs = [("shrikhande-rook4", generators.shrikhande(), generators.rook(4))]
    for n in range(6, max_n + 1):
        for a in range(3, n // 2 + 1):
            split = generators.disjoint_union(generators.cycle(a),
                                              generators.cycle(n - a))
            pairs.append((f"c{n}-c{a}c{n - a}", generators.cycle(n), split))
    return pairs


def _compare_mixed(rng: random.Random, tiny: bool) -> list[Op]:
    lo, hi, per_kind, hard = (8, 12, 1, 2) if tiny else (12, 36, 18, 19)
    pairs = []
    for n in _spread(lo, hi, per_kind, 0, 2):
        m = 2 * n
        a, b = _separable_pair(
            lambda s, n=n, m=m: generators.random_gnm(n, m, s), rng,
            lambda x, y: _degrees(x) != _degrees(y))
        pairs.append((f"degseq-n{n}-{len(pairs)}", a, b))
    for n in _spread(lo, hi, per_kind, 1, 2):
        n += n % 2
        a, b = _separable_pair(
            lambda s, n=n: generators.random_regular(n, 3, s), rng)
        pairs.append((f"regular3-n{n}-{len(pairs)}", a, b))
    candidates = _hard_pairs(16)
    chosen = candidates[:1] + rng.sample(candidates[1:], hard - 1)
    for name, a, b in chosen:
        if invariant(a.n, a.edges()) == invariant(b.n, b.edges()):
            raise RuntimeError(f"hard pair {name} is not separated by the invariant")
        pairs.append((name, a, b))

    ops = []
    for i, (name, a, b) in enumerate(pairs):
        ka, kb = f"{name}/a", f"{name}/b"
        ops.append(Op(f"{name}-non", (_relabel(ka, a.n, a.edges(), rng),
                                      _relabel(kb, b.n, b.edges(), rng)),
                      group=f"{name}-non", label="non-iso"))
        # the iso row mirrors the pair's size; it alternates which side it copies
        key, twin = (ka, a) if i % 2 == 0 else (kb, b)
        ops.append(Op(f"{name}-iso", (_relabel(key, twin.n, twin.edges(), rng),
                                      _relabel(key, twin.n, twin.edges(), rng)),
                      group=f"{name}-iso", label="iso"))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "certify-sparse": _certify_sparse,
    "certify-dense": _certify_dense,
    "compare-mixed": _compare_mixed,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``.

    ``tiny`` shrinks every graph so the benchmark's own tests run in seconds.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tiny)
