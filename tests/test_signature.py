from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings

import rsvp.signature
from conftest import atlas, graph_pairs, random_graph, shuffled_copy, small_graphs, wl_uniform_twins
from hard_families import NON_GROUP_ROWS, Z5_ROWS, chang_graph, latin_square_graph, triangular_graph
from rsvp.distances import distance_matrix
from rsvp.generators import (
    complete,
    cycle,
    disjoint_union,
    graph_from_spec,
    paley,
    path,
    rook,
    shrikhande,
    worked_example,
)
from rsvp.graphs import Graph, Permutation, permute, verify_mapping
from rsvp.oracle import SearchBudgetExceeded, _orbits, find_isomorphism
from rsvp.reachability import Group, aggregate_hp
from rsvp.signature import (
    CertificatesEqual,
    NonIsomorphic,
    _signature,
    avpd,
    certificate,
    odd_primes,
    rsvp_compare,
    signature_element,
    vertex_signature,
)


def sieve_odd_primes(count: int) -> list[int]:
    """Independent reference for the hop encoding."""
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in range(3, candidate, 2)) and candidate % 2:
            primes.append(candidate)
        candidate += 2
    return primes


def hop_prime(h: int) -> int:
    """The prime that encodes hop ``h``: the h-th odd prime."""
    return odd_primes(h)[-1]


def elements(line: str) -> tuple[Fraction, ...]:
    """A signature's text line parsed back into its elements."""
    return tuple(map(Fraction, line.split(",")))


def test_hop_prime_matches_reference_sieve():
    assert [hop_prime(h) for h in range(1, 11)] == sieve_odd_primes(10)
    assert (hop_prime(1), hop_prime(2), hop_prime(4)) == (3, 5, 11)
    assert hop_prime(10) == 31


def test_hop_primes_are_injective():
    values = [hop_prime(h) for h in range(1, 200)]
    assert len(set(values)) == len(values)


def test_odd_primes_is_the_hop_encoding():
    assert odd_primes(0) == []
    assert odd_primes(200) == sieve_odd_primes(200)
    assert odd_primes(200) == [hop_prime(h) for h in range(1, 201)]


def test_avpd_singleton_is_one():
    d = distance_matrix(worked_example())
    assert avpd([1], d) == Fraction(1)


def test_avpd_on_worked_example_parent_lists():
    d = distance_matrix(worked_example())
    assert avpd([1, 5], d) == Fraction(2)  # d(v2, v6) = 2
    assert avpd([1, 3, 5], d) == Fraction(2)  # (2 + 2 + 2) / 3


def test_avpd_unreachable_pairs_count_zero():
    g = disjoint_union(complete(2), complete(2))
    d = distance_matrix(g)
    assert avpd([0, 2], d) == Fraction(0)
    assert avpd([0, 1, 2], d) == Fraction(1, 3)  # only d(0,1)=1 contributes


def test_avpd_rejects_empty():
    with pytest.raises(ValueError):
        avpd([], distance_matrix(complete(2)))


def test_signature_element_empty_and_single_group():
    d = distance_matrix(complete(2))
    assert signature_element((), d) == Fraction(0)
    assert signature_element((Group(1, 1, (0,)),), d) == Fraction(3)


def test_signature_element_golden_value():
    g = worked_example()
    d = distance_matrix(g)
    groups = aggregate_hp(g, 0).groups[2]
    assert signature_element(groups, d) == Fraction(12100)


def test_signature_element_is_product_of_group_factors():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, max_n=9)
        d = distance_matrix(g)
        v = rng.randrange(g.n)
        hp = aggregate_hp(g, v)
        for t in range(g.n):
            expected = Fraction(1) if hp.groups[t] else Fraction(0)
            for grp in hp.groups[t]:
                expected *= avpd(grp.parents, d) * hop_prime(grp.hop) ** grp.count
            assert signature_element(hp.groups[t], d) == expected


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_integer_signatures_match_the_fraction_definition(g):
    # isolated vertices and two-block edge sets leave unreachable pairs
    # (counted 0 in avpd) and unreachable targets (element 0/1)
    d = distance_matrix(g)
    signatures = []
    for v in range(g.n):
        expected = tuple(sorted(signature_element(grp, d) for grp in aggregate_hp(g, v).groups))
        assert elements(vertex_signature(g, v, d)) == expected
        signatures.append(expected)
    cert = certificate(g)
    assert sorted(map(elements, cert.lines)) == sorted(signatures)
    # the text is canonical: every element in lowest terms, 0 as 0/1
    for line in cert.serialize().splitlines():
        for token in line.split(","):
            x = Fraction(token)
            assert token == f"{x.numerator}/{x.denominator}"


def test_integer_signatures_match_the_definition_above_64_vertices():
    # a disconnected n = 80 graph: the other component's 40 targets and the
    # vertex itself are unreached, so their 41 elements must read 0
    g = graph_from_spec("disjoint_union:cycle:40:random_regular:40:3:7")
    d = distance_matrix(g)
    for v in (0, 39, 40, 79):
        expected = tuple(sorted(signature_element(grp, d) for grp in aggregate_hp(g, v).groups))
        assert expected.count(Fraction(0)) == 41
        assert elements(vertex_signature(g, v, d)) == expected


def test_vertex_signature_k2():
    g = complete(2)
    d = distance_matrix(g)
    assert vertex_signature(g, 0, d) == "0/1,0/1"
    assert vertex_signature(g, 1, d) == "0/1,0/1"


def test_vertex_signature_isolated_vertex_all_zero():
    g = Graph(4, [(1, 2), (2, 3), (1, 3)])
    d = distance_matrix(g)
    assert elements(vertex_signature(g, 0, d)) == (Fraction(0),) * 4


def test_vertex_signature_shape():
    g = worked_example()
    d = distance_matrix(g)
    sig = elements(vertex_signature(g, 0, d))
    assert len(sig) == g.n
    assert sig == tuple(sorted(sig))
    assert Fraction(0) in sig
    assert sig == (
        Fraction(0),
        Fraction(49),
        Fraction(1210),
        Fraction(1274),
        Fraction(1274),
        Fraction(12100),
    )


def test_cycle4_signatures_identical_by_transitivity():
    g = cycle(4)
    d = distance_matrix(g)
    sigs = {vertex_signature(g, v, d) for v in range(4)}
    assert len(sigs) == 1


def test_certificate_permutation_invariance():
    rng = random.Random(29)
    for _ in range(25):
        g = random_graph(rng, max_n=10)
        p = Permutation.random(g.n, rng)
        assert certificate(g) == certificate(permute(g, p))


def test_certificates_separate_refinement_hard_pairs():
    assert certificate(cycle(6)) != certificate(disjoint_union(complete(3), complete(3)))
    assert certificate(shrikhande()) != certificate(rook(4))


def test_certificate_alone_ties_k2_and_its_complement():
    # with either vertex of K2 deleted its neighbour reaches nothing, so every
    # element is 0/1, as in the edgeless graph
    assert certificate(Graph(2)) == certificate(Graph(2, [(0, 1)]))
    assert rsvp_compare(Graph(2), Graph(2, [(0, 1)])) == NonIsomorphic("edge counts differ")


def test_serialize_k2():
    assert certificate(complete(2)).serialize() == "0/1,0/1\n0/1,0/1\n"


def test_serialize_deterministic_under_storage_shuffles():
    rng = random.Random(31)
    g = random_graph(rng, max_n=12)
    reference = certificate(g).serialize()
    for _ in range(5):
        assert certificate(shuffled_copy(g, rng)).serialize() == reference


def test_serialize_shape_and_exactness():
    cert = certificate(worked_example())
    text = cert.serialize()
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines == sorted(lines)
    assert len(lines) == 6
    assert [len(line.split(",")) for line in lines] == [6] * 6
    # read from the text: the parsed Fractions are in lowest terms anyway
    for line in lines:
        for token in line.split(","):
            num, den = map(int, token.split("/"))
            assert den >= 1
            assert gcd(num, den) == 1


# sha256 of certificate(graph_from_spec(spec)).serialize(); the bytes are the
# certificate format, so a change here is a format change
CERTIFICATE_SHA256 = [
    ("worked_example", "b307807b12454b0ae3e61637a9df522b09fcfc130c348a7b4db7990e6ce157c3"),
    ("paley:29", "17b4eccbf0727fc6a7b22a62c4a4865e8c4ddcfb583e5e71fc1765d44915c1c6"),
    ("rook:5", "0a1140b91e9f8a9b32863f6b586c7f7eb6f6f6b7028925986eb29c1ca3e3939b"),
    ("shrikhande", "891e7b480d336e6ce81ad1f425cf3f0ddf7491a5505216614a1dd78329908528"),
    ("cycle:33", "ea6ffd53656d2d38e9c4d72892f33abb91ca38825f97906dd1f622588c81ef45"),
    ("path:25", "4e3f7b7b94a574b63ba88cf793f626d27e68ef3deae30858c5cc13408a9eb474"),
    ("random_gnm:40:120:1", "2031a6c0fa8213cfdcc8753e7fdcb1206d63fa7ac9619706417ab1a64b0270bb"),
    ("random_regular:30:3:2", "8fcb85b335face5bd0e39c8bd6a2f9694e1cbc0f710a80f31e0399a99f2a7295"),
    ("disjoint_union:complete:3:cycle:5",
     "1c830df6dea070579c84a66a5d0ba131260c5f83fb594c00406817f5936814a3"),
    ("permuted:7:random_gnm:24:100:3",
     "7b9187fd23e52259cbedc3b50d990a43f1382ff9a813ef50240cf4769a0d29ec"),
    # above n = 64 a vertex bitset spans three or more 30-bit digits
    ("paley:101", "4ba98de3f1e00c3a218cb031a9dcceb988c29b4c1840d0743304af3469f9bdde"),
    ("random_regular:200:4:1", "c69515394c9de0a96d219d61b4ba7b711d5f75cf73bc764a947d5febfa1e26a3"),
    ("path:100", "f5b50ecdc876e421115644ea418954a7bb17c8a1070a676693af80ad91402438"),
    ("random_gnm:70:210:5", "8d3b315aa18fa4c278969df07a0f9d82950c2682c2bebd0388bcd12769a33b4a"),
    ("disjoint_union:cycle:40:random_regular:40:3:7",
     "0e66cf9bb64654ceb5078b20f4c99b6ce9948eb1a393a22cf5c4383b1def0835"),
]


@pytest.mark.parametrize("spec, digest", CERTIFICATE_SHA256)
def test_certificate_bytes_are_pinned(spec, digest):
    text = certificate(graph_from_spec(spec)).serialize()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def orbit_free_lines(g: Graph) -> tuple[str, ...]:
    """The certificate's lines with every vertex's signature computed."""
    primes = odd_primes(g.n)
    return tuple(sorted(_signature(aggregate_hp(g, v), {}, primes) for v in range(g.n)))


def test_certificates_equal_the_orbit_free_lines_on_the_atlas():
    for n in range(8):
        for g in atlas(n):
            assert certificate(g).lines == orbit_free_lines(g)


@pytest.mark.parametrize("spec, digest", CERTIFICATE_SHA256)
def test_relabeled_certificates_equal_the_orbit_free_lines(spec, digest):
    g = graph_from_spec(spec)
    twin = permute(g, Permutation.random(g.n, random.Random(5)))
    cert = certificate(twin)
    assert cert.lines == orbit_free_lines(twin)
    assert hashlib.sha256(cert.serialize().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: latin_square_graph(Z5_ROWS),
    lambda: latin_square_graph(NON_GROUP_ROWS),
    triangular_graph,
    lambda: chang_graph(1),
    lambda: chang_graph(2),
    lambda: chang_graph(3),
], ids=["latin-Z5", "latin-non-group", "T8", "chang-1", "chang-2", "chang-3"])
def test_hard_family_certificates_equal_the_orbit_free_lines(build):
    # strongly regular: the orbit searches fail or run out of streams on
    # some of these, and a cell's lines are then computed one by one
    g = build()
    twin = permute(g, Permutation.random(g.n, random.Random(11)))
    assert certificate(twin).lines == orbit_free_lines(twin) == orbit_free_lines(g)


def test_rsvp_compare_size_gate():
    verdict = rsvp_compare(complete(3), path(3))
    assert isinstance(verdict, NonIsomorphic)
    assert "edge" in verdict.reason


def test_rsvp_compare_vertex_count_gate():
    assert isinstance(rsvp_compare(complete(3), complete(4)), NonIsomorphic)


def test_rsvp_compare_permuted_pair():
    rng = random.Random(37)
    g = random_graph(rng, max_n=12)
    p = Permutation.random(g.n, rng)
    verdict = rsvp_compare(g, permute(g, p))
    assert isinstance(verdict, CertificatesEqual)
    assert sorted(verdict.mapping) == list(range(g.n))


def test_rsvp_compare_srg_pair():
    assert isinstance(rsvp_compare(shrikhande(), rook(4)), NonIsomorphic)


def sort_and_zip_compare(g1: Graph, g2: Graph):
    """Reference compare: rsvp_compare's gates, then every signature of both
    graphs sorted with its vertex and zipped. Returns the verdict with the
    mapping left out, and the zipped id-order pairing (None when the
    signatures differ), which is an isomorphism only if it verifies."""
    for reason, size in [("vertex counts differ", lambda g: g.n),
                         ("edge counts differ", lambda g: g.m),
                         ("degree sequences differ", Graph.degree_sequence)]:
        if size(g1) != size(g2):
            return NonIsomorphic(reason), None
    by_sig1, by_sig2 = (
        sorted((vertex_signature(g, v, distance_matrix(g)), v) for v in range(g.n))
        for g in (g1, g2)
    )
    mapping = [0] * g1.n
    for (sig1, v1), (sig2, v2) in zip(by_sig1, by_sig2):
        if sig1 != sig2:
            return NonIsomorphic("certificates differ"), None
        mapping[v1] = v2
    return CertificatesEqual(None), Permutation(tuple(mapping))


@contextmanager
def search_off():
    """rsvp_compare with both of its searches out of budget at once, so every
    verdict comes from the certificates and carries no mapping."""
    def out_of_budget(g1, g2, budget=None, anchor=None):
        raise SearchBudgetExceeded("forced off")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rsvp.signature.find_isomorphism", out_of_budget)
        yield


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_streamed_compare_matches_sort_and_zip(pair):
    g, h = pair
    with search_off():
        verdict = rsvp_compare(g, h)
    expected, _ = sort_and_zip_compare(g, h)
    assert type(verdict) is type(expected)
    # the reason of a NonIsomorphic verdict, and no mapping for equal ones
    assert verdict == expected


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_compare_with_the_search_keeps_verdicts_and_proves_its_mappings(pair):
    g, h = pair
    verdict = rsvp_compare(g, h)
    expected, _ = sort_and_zip_compare(g, h)
    assert type(verdict) is type(expected)
    if isinstance(verdict, NonIsomorphic):
        assert verdict.reason == expected.reason
    else:
        assert verdict.mapping is None or verify_mapping(g, h, verdict.mapping)


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_compare_proves_every_pair_whose_id_order_pairing_verifies(pair):
    # the pairing is an isomorphism, and the search anchored on one matched
    # signature finds one within budget on every pair these graphs give
    g, h = pair
    _, zipped = sort_and_zip_compare(g, h)
    if zipped is not None and verify_mapping(g, h, zipped):
        assert rsvp_compare(g, h).mapping is not None


def verdicts_sha256(verdicts: list) -> str:
    return hashlib.sha256(repr(verdicts).encode("utf-8")).hexdigest()


def test_search_on_and_off_agree_on_every_atlas_pair():
    # the search proves no atlas pair isomorphic and never decides
    # NonIsomorphic, so each verdict is the certificates', reason and all
    pairs = [(g, h) for n in range(7) for g, h in combinations(atlas(n), 2) if g.m == h.m]
    with search_off():
        expected = [rsvp_compare(g, h) for g, h in pairs]
    assert [rsvp_compare(g, h) for g, h in pairs] == expected
    # some pairs pass every gate, so the search ran on them
    assert NonIsomorphic("certificates differ") in expected
    # the verdicts and their reasons, pinned for later search changes
    assert verdicts_sha256(expected) == "5b3fafe41cab252071ff2a1ccf839175ab61128acaa1ac315a0411b1378b39fa"


def test_compare_says_equal_exactly_when_the_certificates_are_equal():
    # every ordered pair of atlas graphs past the gates, so each graph's lines
    # are counted off against the other's from both sides: a g2 line missing
    # from g1 must end the count-off whichever graph holds it
    pairs = 0
    for n in range(8):
        graphs = atlas(n)
        certificates = [certificate(g) for g in graphs]
        for (g, a), (h, b) in permutations(zip(graphs, certificates), 2):
            if g.m == h.m and g.degree_sequence() == h.degree_sequence():
                pairs += 1
                assert isinstance(rsvp_compare(g, h), CertificatesEqual) == (a == b), (g.edges(), h.edges())
    assert pairs == 6_750


def count_traversals(monkeypatch) -> list[int]:
    """The sources of the traversals run: by this process, and, read from
    its replies, by a certificate's helper process."""
    calls: list[int] = []

    def counting(g, v):
        calls.append(v)
        return aggregate_hp(g, v)

    def receiving(roots):
        lines = receive(roots)
        if lines is not None:
            calls.extend(roots)
        return lines

    receive = rsvp.signature._receive
    monkeypatch.setattr("rsvp.signature.aggregate_hp", counting)
    monkeypatch.setattr("rsvp.signature._receive", receiving)
    return calls


@pytest.mark.parametrize("spec, traversals", [
    ("permuted:3:cycle:48", 1),
    ("permuted:3:random_gnm:40:120:1", 40),
])
def test_certificate_traverses_once_per_proven_orbit(monkeypatch, spec, traversals):
    g = graph_from_spec(spec)
    expected = orbit_free_lines(g)
    calls = count_traversals(monkeypatch)
    assert certificate(g).lines == expected
    assert len(calls) == traversals


def test_compare_stops_at_the_first_unmatched_signature(monkeypatch):
    calls = count_traversals(monkeypatch)
    assert rsvp_compare(shrikhande(), rook(4)) == NonIsomorphic("certificates differ")
    # the Shrikhande graph's vertex-0 line, then the rook graph's lines up to
    # the first unmatched one: at most 1 + 16 (the exact 2 is pinned below)
    assert len(calls) <= 17


def test_a_proved_pair_computes_no_signature(monkeypatch):
    calls = count_traversals(monkeypatch)
    g, h = paley(13), graph_from_spec("permuted:42:paley:13")
    verdict = rsvp_compare(g, h)
    assert isinstance(verdict, CertificatesEqual)
    assert verify_mapping(g, h, verdict.mapping)
    assert calls == []


@pytest.mark.parametrize("twins", [
    lambda: (graph_from_spec("random_regular:60:3:2"),
             graph_from_spec("permuted:42:random_regular:60:3:2")),
    wl_uniform_twins,
], ids=["random_regular:60:3:2", "wl_uniform_twins"])
def test_distance_profiles_prove_3_regular_twins_without_a_signature(monkeypatch, twins):
    # a uniform start leaves a 3-regular graph one class; the distance
    # profiles split these twins enough for the first search to prove them
    g, h = twins()
    calls = count_traversals(monkeypatch)
    verdict = rsvp_compare(g, h)
    assert calls == []
    assert verify_mapping(g, h, verdict.mapping)


def test_one_matched_signature_anchors_a_proof_the_first_search_misses(monkeypatch):
    # shrikhande is vertex-transitive, so its distance profiles are uniform
    # and the first search runs out of budget; with g's vertex 0 and its
    # first equal-signature vertex of h individualised, the second search
    # succeeds before most signatures are computed
    g = shrikhande()
    h = graph_from_spec("permuted:42:shrikhande")
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(g, h, budget=g.n * g.n)
    calls = count_traversals(monkeypatch)
    verdict = rsvp_compare(g, h)
    assert len(calls) <= g.n + 1
    assert verify_mapping(g, h, verdict.mapping)


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    """C_n(jumps): v adjacent to v +- j (mod n) for each jump j."""
    return Graph(n, sorted({tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps}))


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): an outer n-cycle, spokes v -- n + v, inner edges n + v -- n + v + k."""
    outer = [(v, (v + 1) % n) for v in range(n)]
    spokes = [(v, n + v) for v in range(n)]
    inner = [(n + v, n + (v + k) % n) for v in range(n)]
    return Graph(2 * n, outer + spokes + inner)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("build", [
    lambda: circulant(31, (1, 5, 8)),
    lambda: generalized_petersen(24, 5),
    lambda: graph_from_spec("random_regular:20:9:1"),
    lambda: graph_from_spec("disjoint_union:shrikhande:rook:4"),
], ids=["C31(1,5,8)", "GP(24,5)", "random_regular:20:9:1", "disjoint_union:shrikhande:rook:4"])
def test_the_anchored_search_proves_twins_the_first_search_misses(monkeypatch, build, seed):
    # no benchmark row reaches the anchored run, so these twins pin its reach:
    # the first search runs out on each, and the one anchored on a matched
    # signature proves it after a few signatures
    g = build()
    h = permute(g, Permutation.random(g.n, random.Random(seed)))
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(g, h, budget=g.n * g.n)
    calls = count_traversals(monkeypatch)
    verdict = rsvp_compare(g, h)
    assert len(calls) <= g.n + 1
    assert verify_mapping(g, h, verdict.mapping)


def test_a_failed_anchor_falls_back_to_counting_off_the_signatures(monkeypatch):
    # K3 + K2 + K1 against P5 + K1: equal degree sequences, and g's vertex-0
    # signature occurs in h, so a search anchored on it runs; it finds
    # nothing, and counting the multisets off finds a signature of h that g
    # does not have
    g = Graph(6, [(0, 5), (1, 2), (1, 3), (2, 3)])
    h = Graph(6, [(0, 2), (1, 2), (1, 3), (3, 5)])
    anchors = []

    def searching(g1, g2, budget=None, anchor=None):
        anchors.append(anchor)
        return find_isomorphism(g1, g2, budget=budget, anchor=anchor)

    monkeypatch.setattr("rsvp.signature.find_isomorphism", searching)
    assert rsvp_compare(g, h) == NonIsomorphic("certificates differ")
    assert anchors == [None, 4]


def test_a_failed_anchor_falls_back_without_computing_a_signature_twice(monkeypatch):
    # on a relabeled paley:29 both searches run out, so the multisets are
    # counted off in full: each proven orbit's signature exactly once (the
    # orbit search proves paley:29 one orbit and joins no two vertices of
    # this relabeling, so 1 + 29 lines)
    g = paley(29)
    h = graph_from_spec("permuted:42:paley:29")
    calls = count_traversals(monkeypatch)
    assert rsvp_compare(g, h) == CertificatesEqual(None)
    assert len(calls) == len(set(_orbits(g))) + len(set(_orbits(h)))


def count_orbit_searches(monkeypatch) -> list[Graph]:
    searched: list[Graph] = []

    def counting(g):
        searched.append(g)
        return _orbits(g)

    monkeypatch.setattr("rsvp.signature._orbits", counting)
    return searched


@pytest.mark.parametrize("specs, reason, lines, searches", [
    # g2's first line differs from g1's, and g2 is one proven orbit, so
    # every later line of g2 repeats its first
    (("cycle:40", "disjoint_union:cycle:20:cycle:20"), "certificates differ", 2, 1),
    (("shrikhande", "rook:4"), "certificates differ", 2, 1),
    # the first lines match, and the search anchored on them proves the pair
    (("shrikhande", "permuted:42:shrikhande"), None, 2, 0),
    (("path:4", "disjoint_union:cycle:3:complete:1"), "degree sequences differ", 0, 0),
], ids=["cycle-vs-two-cycles", "shrikhande-vs-rook", "anchored-shrikhande", "degree-gated"])
def test_compare_computes_a_proven_orbits_line_once_and_searches_only_past_the_first(
        monkeypatch, specs, reason, lines, searches):
    g, h = map(graph_from_spec, specs)
    calls = count_traversals(monkeypatch)
    searched = count_orbit_searches(monkeypatch)
    verdict = rsvp_compare(g, h)
    if reason is None:
        assert verify_mapping(g, h, verdict.mapping)
    else:
        assert verdict == NonIsomorphic(reason)
    assert (len(calls), len(searched)) == (lines, searches)


def test_every_relabeled_atlas_twin_gets_a_proved_mapping():
    rng = random.Random(0)
    twins = [(g, permute(g, Permutation.random(g.n, rng)))
             for n in range(1, 8) for g in atlas(n)]
    assert len(twins) == 1252
    verdicts = [rsvp_compare(g, h) for g, h in twins]
    for (g, h), verdict in zip(twins, verdicts):
        assert verdict.mapping is not None and verify_mapping(g, h, verdict.mapping)
    # the mappings found, pinned for later search changes
    assert verdicts_sha256(verdicts) == "cec9cc2b24fc01a8253a044f5090972c5e725819fe623da8c28c5c8ad2e8358f"


def test_degree_sequence_gate_computes_no_signature(monkeypatch):
    calls = count_traversals(monkeypatch)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert (star.n, star.m) == (path(4).n, path(4).m)
    assert rsvp_compare(star, path(4)) == NonIsomorphic("degree sequences differ")
    assert calls == []


def test_certificate_path_computes_no_distances(monkeypatch):
    # parents of one target are pairwise at distance 1 or 2, so avpd needs
    # only the edges inside the parent set, never a BFS
    expected = certificate(paley(13))

    def refuse(g, s):
        raise AssertionError("the certificate path ran a BFS")

    monkeypatch.setattr("rsvp.distances.bfs_distances", refuse)
    assert certificate(paley(13)) == expected
    assert rsvp_compare(shrikhande(), rook(4)) == NonIsomorphic("certificates differ")


def test_certify_and_compare_build_no_fraction(monkeypatch):
    # signatures stay integer keys and then text lines; Fraction is only the
    # definition's type
    expected = certificate(paley(13)).serialize()
    g = random_graph(random.Random(43), max_n=10)
    twin = permute(g, Permutation.random(g.n, random.Random(47)))

    def refuse(*args):
        raise AssertionError("a Fraction was built on the certify/compare path")

    monkeypatch.setattr("rsvp.signature.Fraction", refuse)
    assert certificate(paley(13)).serialize() == expected
    assert rsvp_compare(shrikhande(), rook(4)) == NonIsomorphic("certificates differ")
    assert isinstance(rsvp_compare(g, twin), CertificatesEqual)


def test_rsvp_compare_agrees_with_certificate_equality():
    # with the size gates passed, the verdict is exactly certificate equality
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, max_n=7)
        h = random_graph(rng, max_n=7)
        if (g.n, g.m) != (h.n, h.m):
            continue
        equal = certificate(g) == certificate(h)
        assert isinstance(rsvp_compare(g, h), CertificatesEqual) == equal


def test_verify_mapping_identity_and_mismatch():
    g = complete(3)
    identity = Permutation((0, 1, 2))
    assert verify_mapping(g, g, identity)
    assert not verify_mapping(complete(3), path(3), identity)
    # every edge of the path maps onto an edge of the triangle, whose third
    # edge has no preimage
    assert not verify_mapping(path(3), complete(3), identity)
    with pytest.raises(ValueError):
        verify_mapping(complete(3), complete(2), identity)


def test_verify_mapping_rejects_wrong_bijection():
    g = path(3)  # 0-1-2; swapping endpoints keeps it, moving the middle breaks it
    assert verify_mapping(g, g, Permutation((2, 1, 0)))
    assert not verify_mapping(g, g, Permutation((1, 0, 2)))


# a hand-built index of the path 0 - 1 - 2 seen from 0, with one class of
# 1000 starts at hop 2: target 2's element is 5**1000, 699 digits, a count no
# graph reaches below degree 1000
_LONG_ELEMENT = """
from rsvp.reachability import HopParentIndex
from rsvp.signature import _signature, odd_primes
index = HopParentIndex([0b010, 0b101, 0b010], [(2, 1000, 0b100, 0b010)])
print(_signature(index, {}, odd_primes(3)))
"""


def test_elements_past_the_int_to_str_digit_limit_are_written_exactly():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = {}
    for limit in ("640", "0"):  # 640 is the lowest limit CPython accepts; 0 lifts it
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out[limit] = subprocess.run([sys.executable, "-c", _LONG_ELEMENT], env=env,
                                    capture_output=True, text=True, timeout=60, check=True).stdout
    assert out["640"] == out["0"] == f"0/1,0/1,{5**1000}/1\n"
