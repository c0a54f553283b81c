"""Vertex signatures, graph certificates, and certificate comparison.

Every quantity here is exact: signature equality has to be decidable, and
products of prime powers overflow floats long before interesting graph sizes.
Hop counts are encoded injectively into odd primes, so equal signature
elements mean equal hop/count structure up to the averaged parent distances.
``avpd`` and ``signature_element`` state the definition with
``fractions.Fraction`` and the all-pairs distance matrix; certificates compute
the same values as an integer numerator and denominator per element, read from
the hop-parent bitsets, and keep each signature as its text line in lowest
terms, building no ``Fraction``. They need no distances: every parent of a
target is a neighbor of it, so two parents are at distance 1 if adjacent and 2
(through the target) otherwise, and ``avpd(P) = 2 - e(P) / C(|P|, 2)`` with
``e(P)`` the number of edges inside ``P``.

A certificate is the sorted multiset of vertex signatures. Relabeling a graph
permutes the multiset, so certificates of isomorphic graphs are equal; the
converse does not hold, which is why an equal-certificates verdict carries a
mapping only when a budgeted exact search has proved one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt, lcm

# distance_matrix is unused here; it stays bound because perfbench's
# tracer patches rsvp.signature.distance_matrix
from .distances import distance_matrix  # noqa: F401
from .graphs import Graph, Permutation
from .oracle import SearchBudgetExceeded, find_isomorphism
from .reachability import Group, HopParentIndex, aggregate_hp


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


def avpd(parents, dist: Sequence[Sequence[int | None]]) -> Fraction:
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


def signature_element(groups: tuple[Group, ...], dist: Sequence[Sequence[int | None]]) -> Fraction:
    """Product over groups of avpd(parents) * prime(hop)**count, with
    prime(h) the h-th odd prime and ``groups`` in increasing hop order.

    An empty group list (unreachable target, or the vertex itself) maps to 0.
    This is the definition; certificates compute the same value in integers
    (see ``_signature``).
    """
    if not groups:
        return Fraction(0)
    primes = odd_primes(groups[-1].hop)
    acc = Fraction(1)
    for group in groups:
        acc *= avpd(group.parents, dist) * primes[group.hop - 1] ** group.count
    return acc


def _signature(index: HopParentIndex, totals: dict[int, int], primes: list[int]) -> str:
    """The sorted signature behind ``index`` as its text line, built in integers.

    Each target's element is a numerator, the product over its groups of
    total(P) * prime(hop)**count, over a denominator, the product of the
    pair counts C(|P|, 2) (a single parent contributes avpd 1). The index is
    walked one count class at a time, so ``prime(hop)**count`` is computed
    once per class and shared by its targets. total(P) is k(k - 1) - e(P)
    for k parents with e(P) edges among them, memoised in ``totals`` on the
    parent bitset; ``rows`` are the graph's own, so one memo serves every
    vertex of a graph. Elements are sorted by the exact integer keys
    ``num * (scale // den)``, with ``scale`` the lcm of the denominators,
    and written as ``key/scale`` in lowest terms (0 as ``0/1``), comma-joined.
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
                    edges = 0  # twice e(P): each edge inside P is seen from both ends
                    rest = parents
                    while rest:
                        low = rest & -rest
                        edges += (rows[low.bit_length() - 1] & parents).bit_count()
                        rest ^= low
                    total = totals[parents] = k * (k - 1) - edges // 2
                num[t] *= total * factor
                den[t] *= k * (k - 1) // 2
            else:
                num[t] *= factor
    scale = lcm(*den)
    keys = sorted([a * (scale // b) for a, b in zip(num, den)])
    out = []
    last = -1
    for key in keys:
        if key != last:  # equal keys are adjacent: format each one once
            last = key
            g = gcd(key, scale)
            text = f"{key // g}/{scale // g}"
        out.append(text)
    return ",".join(out)


def vertex_signature(g: Graph, v: int, dist: Sequence[Sequence[int | None]]) -> str:
    """The n signature elements of ``v``, ascending, as their text line.

    ``dist`` is no longer read; it is kept for callers that pass the
    distance matrix of ``g``. The element for ``v`` is always 0, so every
    signature has exactly n elements and contains ``0/1``.
    """
    return _signature(aggregate_hp(g, v), {}, odd_primes(g.n))


def _signatures(g: Graph) -> Iterator[str]:
    """The lines of ``vertex_signature(g, v, ...)`` for v = 0, 1, ..., computed
    lazily, with one pair-total memo and one prime list (hops <= n) per graph."""
    totals: dict[int, int] = {}
    primes = odd_primes(g.n)
    for v in range(g.n):
        yield _signature(aggregate_hp(g, v), totals, primes)


@dataclass(frozen=True)
class Certificate:
    """All n vertex signatures as their canonical text lines, sorted."""

    lines: tuple[str, ...]

    def serialize(self) -> str:
        """Bit-exact text form: one signature per line, elements ascending as
        ``<num>/<den>`` in lowest terms, lines sorted, newline-terminated."""
        return "".join([line + "\n" for line in self.lines])


def certificate(g: Graph) -> Certificate:
    """Certificate of ``g``; equal for isomorphic graphs, one-sided otherwise."""
    return Certificate(tuple(sorted(_signatures(g))))


@dataclass(frozen=True)
class NonIsomorphic:
    reason: str = ""


@dataclass(frozen=True)
class CertificatesEqual:
    """Signature multisets matched. ``mapping`` is an isomorphism that a
    budgeted search proved, or None when neither search found one."""

    mapping: Permutation | None


Verdict = NonIsomorphic | CertificatesEqual


def _budgeted_search(g1: Graph, g2: Graph, colors: Sequence[int] = ()) -> Permutation | None:
    try:
        return find_isomorphism(g1, g2, budget=g1.n * g1.n, colors=colors)
    except SearchBudgetExceeded:
        return None


def rsvp_compare(g1: Graph, g2: Graph) -> Verdict:
    """Compare certificates; never calls truly isomorphic graphs non-isomorphic.

    Differing vertex counts, edge counts or degree sequences short-circuit
    before any signature is computed. Next, an exact search budgeted at
    n * n candidate checks looks for an isomorphism; one it finds settles
    CertificatesEqual with no signature computed. Otherwise g2's signatures
    are computed one vertex at a time and counted off against g1's classes;
    the first one with no count left means the graphs are non-isomorphic,
    and the rest are never computed. Equal certificates yield
    CertificatesEqual with the mapping of a second search, equally budgeted
    and seeded with the signature classes, or None. Neither search ever
    decides NonIsomorphic.
    """
    if g1.n != g2.n:
        return NonIsomorphic("vertex counts differ")
    if g1.m != g2.m:
        return NonIsomorphic("edge counts differ")
    if g1.degree_sequence() != g2.degree_sequence():
        return NonIsomorphic("degree sequences differ")
    proved = _budgeted_search(g1, g2)
    if proved is not None:
        return CertificatesEqual(proved)
    ids: dict[str, int] = {}  # signature line -> class id
    colors = [ids.setdefault(sig, len(ids)) for sig in _signatures(g1)]
    unmatched = Counter(colors)
    for sig in _signatures(g2):
        i = ids.get(sig, -1)
        if not unmatched[i]:
            return NonIsomorphic("certificates differ")
        unmatched[i] -= 1
        colors.append(i)  # g2's labels follow g1's
    return CertificatesEqual(_budgeted_search(g1, g2, colors))
