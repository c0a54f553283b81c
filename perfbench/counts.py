"""Exact work counts of one pass, computed outside all spans.

They describe the inputs (the hop-parent index and the certificate of every
graph a pass touches), so they repeat exactly for a seed and stay defined
when a later change routes ``certificate`` around ``aggregate_hp``.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from rsvp import distances, generators, reachability, refinement, signature
from rsvp.graphs import Graph

# the exact counts a pass reports, with their units
UNITS = {
    "formats.bytes_in": "bytes",
    "reachability.traversals": "count",
    "reachability.groups": "count",
    "reachability.parent_refs": "count",
    "reachability.max_hop": "hops",
    "signature.avpd_pairs": "count",
    "signature.distinct_parent_sets": "count",
    "signature.max_element_bits": "bits",
    "signature.cert_bytes": "bytes",
    "refinement.rounds": "count",
}
# counts combined by max over graphs; every other count is a sum
MAXIMA = ("reachability.max_hop", "signature.max_element_bits")


def merge(total: Counter, part: Counter) -> None:
    for key, value in part.items():
        if key in MAXIMA:
            total[key] = max(total[key], value)
        else:
            total[key] += value


def graph_counts(graph: Graph) -> Counter:
    """Hop-parent index and certificate counts of one graph."""
    counts: Counter = Counter()
    counts["reachability.traversals"] = sum(len(row) for row in graph.adjacency)
    aggregate_hp = getattr(reachability, "aggregate_hp", None)
    if aggregate_hp is not None:
        parent_sets = set()
        for v in range(graph.n):
            for per_target in aggregate_hp(graph, v).groups:
                counts["reachability.groups"] += len(per_target)
                for group in per_target:
                    k = len(group.parents)
                    counts["reachability.parent_refs"] += k
                    counts["signature.avpd_pairs"] += comb(k, 2)
                    counts["reachability.max_hop"] = max(counts["reachability.max_hop"],
                                                         group.hop)
                    parent_sets.add(group.parents)
        counts["signature.distinct_parent_sets"] = len(parent_sets)
    text = signature.certificate(graph).serialize()
    counts["signature.cert_bytes"] = len(text.encode("utf-8"))
    counts["signature.max_element_bits"] = max(
        (int(part).bit_length() for token in text.replace("\n", ",").split(",")
         if token for part in token.split("/")),
        default=0,
    )
    return counts


def refinement_rounds(a: Graph, b: Graph) -> int:
    """Rounds 1-WL takes on the disjoint union, as ``wl_compare`` refines it."""
    return refinement.color_refinement(generators.disjoint_union(a, b)).rounds


def signatures_needed(a: Graph, b: Graph) -> int:
    """Vertex signatures a comparison must compute before it can call the
    pair non-isomorphic: all of ``a``'s, then ``b``'s in vertex order up to
    and including the first one missing from ``a``'s multiset."""
    vertex_signature = getattr(signature, "vertex_signature", None)
    if vertex_signature is None or a.n != b.n or a.m != b.m:
        return 0
    dist_a = distances.distance_matrix(a)
    remaining = Counter(vertex_signature(a, v, dist_a) for v in range(a.n))
    dist_b = distances.distance_matrix(b)
    for v in range(b.n):
        sig = vertex_signature(b, v, dist_b)
        if remaining[sig] == 0:
            return a.n + v + 1
        remaining[sig] -= 1
    return a.n + b.n


def pass_counts(ops) -> tuple[Counter, int]:
    """Exact counts over one pass of ``ops``, and the vertex signatures its
    non-iso compare rows need (see signatures_needed)."""
    total: Counter = Counter()
    per_key: dict[str, Counter] = {}
    needed = 0
    for op in ops:
        graphs = [Graph(inst.n, inst.edges) for inst in op.graphs]
        for inst, graph in zip(op.graphs, graphs):
            total["formats.bytes_in"] += len(inst.dimacs().encode("utf-8"))
            if inst.key not in per_key:
                per_key[inst.key] = graph_counts(graph)
            merge(total, per_key[inst.key])
        if len(graphs) == 2:
            total["refinement.rounds"] += refinement_rounds(*graphs)
        if op.label == "non-iso":
            needed += signatures_needed(*graphs)
    return total, needed
