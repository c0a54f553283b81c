"""Vertex signatures, graph certificates, and certificate comparison.

Every quantity here is exact: signature equality has to be decidable, and
products of prime powers overflow floats long before interesting graph sizes.
Hop counts are encoded injectively into odd primes, so equal signature
elements mean equal hop/count structure up to the averaged parent distances.
``avpd`` and ``signature_element`` state the definition with
``fractions.Fraction`` and the all-pairs distance matrix; certificates compute
the same values with an integer numerator and denominator per element, read
straight from the hop-parent bitsets, and make one ``Fraction`` per element at
the end. They need no distances: every parent of a target is a neighbor of
it, so two parents are at distance 1 if adjacent and 2 (through the target)
otherwise, and ``avpd(P) = 2 - e(P) / C(|P|, 2)`` with ``e(P)`` the number of
edges inside ``P``.

A certificate is the sorted multiset of vertex signatures. Relabeling a graph
permutes the multiset, so certificates of isomorphic graphs are equal; the
converse does not hold, which is why an equal-certificates verdict carries a
candidate mapping rather than an isomorphism claim.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, lcm

# distance_matrix is unused here; it stays bound because perfbench's
# tracer patches rsvp.signature.distance_matrix
from .distances import DistanceMatrix, distance_matrix  # noqa: F401
from .graphs import Graph, Permutation
from .reachability import Group, HopParentIndex, aggregate_hp, members

Signature = tuple[Fraction, ...]


def odd_primes(count: int) -> list[int]:
    """The first ``count`` odd primes, by a sieve of Eratosthenes whose bound
    doubles until it holds enough of them."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        for p in range(3, isqrt(limit - 1) + 1, 2):
            if sieve[p]:
                sieve[p * p::2 * p] = bytes(len(range(p * p, limit, 2 * p)))
        primes = [p for p in range(3, limit, 2) if sieve[p]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def hop_prime(h: int) -> int:
    """The h-th odd prime: 1 -> 3, 2 -> 5, 3 -> 7, 4 -> 11, ..."""
    if h < 1:
        raise ValueError("hop values start at 1")
    return odd_primes(h)[-1]


def avpd(parents, dist: DistanceMatrix) -> Fraction:
    """Average pairwise distance inside a parent list.

    Distances come from the original graph's matrix, not the vertex-deleted
    graph. An unreachable pair counts as distance 0; a singleton list is the
    multiplicative identity 1.
    """
    pl = list(parents)
    k = len(pl)
    if k == 0:
        raise ValueError("empty parent list")
    if k == 1:
        return Fraction(1)
    total = 0
    for u, w in combinations(pl, 2):
        d = dist[u][w]
        if d is not None:
            total += d
    return Fraction(total, comb(k, 2))


def signature_element(groups: tuple[Group, ...], dist: DistanceMatrix) -> Fraction:
    """Product over groups of avpd(parents) * prime(hop)**count.

    An empty group list (unreachable target, or the vertex itself) maps to 0.
    This is the definition; certificates compute the same value in integers
    (see ``_signature``).
    """
    if not groups:
        return Fraction(0)
    acc = Fraction(1)
    for group in groups:
        acc *= avpd(group.parents, dist) * hop_prime(group.hop) ** group.count
    return acc


def _signature(index: HopParentIndex, totals: dict[int, int], primes: list[int]) -> Signature:
    """The sorted signature behind ``index``, built in integers.

    Each target's element is a numerator, the product over its groups of
    total(P) * prime(hop)**count, over a denominator, the product of the
    pair counts C(|P|, 2) (a single parent contributes avpd 1). The index is
    walked one count class at a time, so ``prime(hop)**count`` is computed
    once per class and shared by its targets. total(P) is k(k - 1) - e(P)
    for k parents with e(P) edges among them, memoised in ``totals`` on the
    parent bitset; ``rows`` are the graph's own, so one memo serves every
    vertex of a graph. Elements are sorted by the exact integer keys
    ``num * (scale // den)``, with ``scale`` the lcm of the denominators,
    and only then become one ``Fraction`` each.
    """
    rows = index.rows
    reached = 0
    for bits in index.reached:
        reached |= bits
    num = [reached >> t & 1 for t in range(len(rows))]
    den = [1] * len(num)
    for hop, count, targets, layer in index.classes():
        factor = primes[hop - 1] ** count
        while targets:
            low = targets & -targets
            t = low.bit_length() - 1
            targets ^= low
            parents = rows[t] & layer
            if parents & (parents - 1):
                k = parents.bit_count()
                total = totals.get(parents)
                if total is None:
                    edges = sum((rows[u] & parents).bit_count() for u in members(parents)) // 2
                    total = totals[parents] = k * (k - 1) - edges
                num[t] *= total * factor
                den[t] *= k * (k - 1) // 2
            else:
                num[t] *= factor
    scale = lcm(*den)
    keyed = sorted(zip([a * (scale // b) for a, b in zip(num, den)], num, den))
    return tuple([Fraction(a, b) for _, a, b in keyed])


def vertex_signature(g: Graph, v: int, dist: DistanceMatrix) -> Signature:
    """Sorted sequence of the n signature elements of ``v``.

    ``dist`` is no longer read; it is kept for callers that pass the
    distance matrix of ``g``. The element for ``v`` is always 0, so every
    signature has length exactly n and contains 0.
    """
    return _signature(aggregate_hp(g, v), {}, odd_primes(g.n))


def _signatures(g: Graph) -> Iterator[Signature]:
    """``vertex_signature(g, v, ...)`` for v = 0, 1, ..., each computed only
    when asked for; one pair-total memo and one prime list (hops never exceed
    n) serve the whole graph."""
    totals: dict[int, int] = {}
    primes = odd_primes(g.n)
    for v in range(g.n):
        yield _signature(aggregate_hp(g, v), totals, primes)


@dataclass(frozen=True)
class Certificate:
    """All n vertex signatures, sorted lexicographically."""

    signatures: tuple[Signature, ...]

    def serialize(self) -> str:
        """Bit-exact text form: one signature per line, elements ascending as
        ``<num>/<den>`` in lowest terms, lines sorted, newline-terminated."""
        lines = [
            ",".join(f"{e.numerator}/{e.denominator}" for e in sig)
            for sig in self.signatures
        ]
        return "".join(line + "\n" for line in sorted(lines))


def certificate(g: Graph) -> Certificate:
    """Certificate of ``g``; equal for isomorphic graphs, one-sided otherwise."""
    return Certificate(tuple(sorted(_signatures(g))))


@dataclass(frozen=True)
class NonIsomorphic:
    reason: str = ""


@dataclass(frozen=True)
class CertificatesEqual:
    """Signature multisets matched; ``mapping`` pairs equal-signature vertices
    and is only a candidate isomorphism until verify_mapping confirms it."""

    mapping: Permutation


Verdict = NonIsomorphic | CertificatesEqual


def rsvp_compare(g1: Graph, g2: Graph) -> Verdict:
    """Compare certificates; never calls truly isomorphic graphs non-isomorphic.

    Differing vertex counts, edge counts or degree sequences short-circuit
    before any signature is computed. Otherwise g2's signatures are computed
    one vertex at a time and each is matched to the lowest unmatched g1
    vertex with an equal signature; the first one with no match left means
    the graphs are non-isomorphic, and the rest are never computed. A full
    matching yields CertificatesEqual with the induced candidate mapping,
    which pairs the i-th smallest vertices of each signature class.
    """
    if g1.n != g2.n:
        return NonIsomorphic("vertex counts differ")
    if g1.m != g2.m:
        return NonIsomorphic("edge counts differ")
    if g1.degree_sequence() != g2.degree_sequence():
        return NonIsomorphic("degree sequences differ")
    unmatched: dict[Signature, deque[int]] = {}
    for v1, sig in enumerate(_signatures(g1)):
        unmatched.setdefault(sig, deque()).append(v1)
    mapping = [0] * g1.n
    for v2, sig in enumerate(_signatures(g2)):
        vertices = unmatched.get(sig)
        if not vertices:
            return NonIsomorphic("certificates differ")
        mapping[vertices.popleft()] = v2
    return CertificatesEqual(Permutation(tuple(mapping)))


def verify_mapping(g1: Graph, g2: Graph, f: Permutation) -> bool:
    """True iff ``f`` maps edges to edges and non-edges to non-edges."""
    if len(f) != g1.n or g1.n != g2.n:
        raise ValueError("mapping size does not match the graphs")
    if g1.m != g2.m:
        return False
    # f is injective and the edge counts are equal, so edges to edges is
    # enough: it leaves no g2 edge for a g1 non-edge to map onto
    rows2 = g2.bits
    return all(rows2[f[u]] >> f[w] & 1 for u, w in g1.edges())
