"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

from conftest import atlas, mixed_family_graph, random_graph, shuffled_copy
from rsvp.cli import main
from rsvp.distances import distance_matrix
from rsvp.generators import (
    complete,
    cycle,
    disjoint_union,
    paley,
    random_gnm,
    rook,
    shrikhande,
    worked_example,
)
from rsvp.graphs import Permutation, permute
from rsvp.oracle import find_isomorphism
from rsvp.reachability import Group, aggregate_hp
from rsvp.refinement import WLVerdict, wl_compare
from rsvp.signature import (
    CertificatesEqual,
    NonIsomorphic,
    certificate,
    rsvp_compare,
    signature_element,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_disconnected_pair():
    t0 = time.perf_counter()
    g1 = cycle(6)
    g2 = disjoint_union(complete(3), complete(3))
    rsvp_ok = isinstance(rsvp_compare(g1, g2), NonIsomorphic)
    wl_ok = wl_compare(g1, g2) is WLVerdict.POSSIBLY_ISOMORPHIC
    elapsed = time.perf_counter() - t0
    _report(
        1,
        rsvp_ok and wl_ok and elapsed < 1.0,
        f"rsvp non-isomorphic={rsvp_ok}, wl inconclusive={wl_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_strongly_regular_pair():
    t0 = time.perf_counter()
    s, r = shrikhande(), rook(4)
    rsvp_ok = isinstance(rsvp_compare(s, r), NonIsomorphic)
    wl_ok = wl_compare(s, r) is WLVerdict.POSSIBLY_ISOMORPHIC
    oracle_ok = find_isomorphism(s, r) is None
    elapsed = time.perf_counter() - t0
    _report(
        2,
        rsvp_ok and wl_ok and oracle_ok and elapsed < 30.0,
        f"rsvp={rsvp_ok}, wl inconclusive={wl_ok}, oracle none={oracle_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_certificate_invariance_suite():
    rng = random.Random(2024)
    failures = 0
    pairs = 500
    for _ in range(pairs):
        g = mixed_family_graph(rng, max_n=24)
        p = Permutation.random(g.n, rng)
        h = permute(g, p)
        byte_equal = certificate(g).serialize() == certificate(h).serialize()
        verdict_equal = isinstance(rsvp_compare(g, h), CertificatesEqual)
        if not (byte_equal and verdict_equal):
            failures += 1
    _report(3, failures == 0, f"{pairs} permuted pairs, {failures} failures")


def test_criterion_4_one_sided_error_vs_oracle():
    rng = random.Random(77)
    soundness_violations = 0
    fp_rsvp = 0
    fp_wl = 0
    non_iso_pairs = 0

    # isomorphic direction: every class against a relabeled copy of itself
    for n in (1, 2, 3, 4, 5, 6):
        for g in atlas(n):
            h = permute(g, Permutation.random(n, rng))
            assert find_isomorphism(g, h) is not None
            if not isinstance(rsvp_compare(g, h), CertificatesEqual):
                soundness_violations += 1
            if wl_compare(g, h) is not WLVerdict.POSSIBLY_ISOMORPHIC:
                soundness_violations += 1

    # non-isomorphic direction: all same-n class pairs (distinct atlas graphs
    # are non-isomorphic, one per class in Read and Wilson's published table;
    # cross-size pairs are settled by the size gates of both methods and carry
    # no information)
    for n in (3, 4, 5, 6):
        classes = atlas(n)
        certs = [certificate(g) for g in classes]
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                non_iso_pairs += 1
                same_size = classes[i].m == classes[j].m
                if same_size and certs[i] == certs[j]:
                    fp_rsvp += 1
                if wl_compare(classes[i], classes[j]) is not WLVerdict.NON_ISOMORPHIC:
                    fp_wl += 1

    # sampled pairs at n = 7, labeled by the oracle
    for _ in range(150):
        g = random_gnm(7, rng.randint(0, 21), rng.randrange(1 << 30))
        if rng.random() < 0.3:
            h = permute(g, Permutation.random(7, rng))
        else:
            h = random_gnm(7, rng.randint(0, 21), rng.randrange(1 << 30))
        iso = find_isomorphism(g, h) is not None
        rsvp_says_non = isinstance(rsvp_compare(g, h), NonIsomorphic)
        wl_says_non = wl_compare(g, h) is WLVerdict.NON_ISOMORPHIC
        if iso:
            soundness_violations += rsvp_says_non + wl_says_non
        else:
            non_iso_pairs += 1
            fp_rsvp += not rsvp_says_non
            fp_wl += not wl_says_non

    detail = (
        f"soundness violations={soundness_violations}; false positives over "
        f"{non_iso_pairs} non-isomorphic pairs: rsvp={fp_rsvp}, wl={fp_wl}"
    )
    _report(4, soundness_violations == 0 and fp_rsvp <= fp_wl, detail)


def test_equal_certificates_of_non_isomorphic_atlas_graphs():
    # criterion 4 counts only same-size pairs; certificates alone also tie
    # graphs of different edge counts, e.g. the edgeless graph and a perfect
    # matching, whose elements are all 0/1. The edge-count gate separates them.
    counts = []
    for n in range(2, 8):
        by_certificate = defaultdict(list)
        for g in atlas(n):
            by_certificate[certificate(g)].append(g)
        pairs = [pair for tied in by_certificate.values() for pair in combinations(tied, 2)]
        counts.append(len(pairs))
        for g, h in pairs:
            assert rsvp_compare(g, h) == NonIsomorphic("edge counts differ")
    print(f"equal-certificate pairs of atlas classes, n = 2..7: {counts}")
    assert counts == [1, 1, 3, 5, 14, 39]


def test_criterion_5_golden_fixture():
    g = worked_example()
    groups = aggregate_hp(g, 0).groups[2]  # source v1, target v3
    groups_ok = groups == (Group(2, 2, (1, 5)), Group(4, 2, (1, 3, 5)))
    element = signature_element(groups, distance_matrix(g))
    element_ok = element == Fraction(12100, 1)
    _report(5, groups_ok and element_ok, f"groups ok={groups_ok}, element={element}")


def test_criterion_6_order_invariance():
    rng = random.Random(99)
    mismatches = 0
    for _ in range(50):
        g = random_graph(rng, max_n=14)
        reference = certificate(g).serialize()
        for _ in range(10):
            if certificate(shuffled_copy(g, rng)).serialize() != reference:
                mismatches += 1
    _report(6, mismatches == 0, f"50 graphs x 10 shuffles, {mismatches} mismatches")


def test_criterion_7_isomorphic_families():
    rng = random.Random(123)
    cases = [
        ("k-complete", complete(5)),
        ("k-complete", complete(8)),
        ("grid", rook(3)),
        ("grid", rook(4)),
        ("paley", paley(13)),
        ("paley", paley(17)),
    ]
    bad = []
    for label, g in cases:
        h = permute(g, Permutation.random(g.n, rng))
        if not isinstance(rsvp_compare(g, h), CertificatesEqual):
            bad.append(f"{label}: rsvp")
        if wl_compare(g, h) is not WLVerdict.POSSIBLY_ISOMORPHIC:
            bad.append(f"{label}: wl")
    _report(7, not bad, f"{len(cases)} permuted family pairs, failures: {bad or 'none'}")


def _median_certify_seconds(path: str, runs: int = 3) -> float:
    times = []
    for _ in range(runs):
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buffer):
            code = main(["certify", path])
        times.append(time.perf_counter() - t0)
        assert code == 0
    return statistics.median(times)


def test_criterion_8_polynomial_runtime_smoke(tmp_path):
    suite_start = time.perf_counter()
    medians = {}
    for n in (100, 200, 400):
        target = tmp_path / f"gnm{n}.col"
        assert main(["gen", "random_gnm", str(n), str(3 * n), "9",
                     "-o", str(target)]) == 0
        medians[n] = _median_certify_seconds(str(target))
    factor_1 = medians[200] / medians[100]
    factor_2 = medians[400] / medians[200]
    suite_elapsed = time.perf_counter() - suite_start
    detail = (
        f"medians {medians[100]:.2f}s / {medians[200]:.2f}s / {medians[400]:.2f}s, "
        f"growth x{factor_1:.1f} and x{factor_2:.1f} per doubling, "
        f"suite {suite_elapsed:.0f}s"
    )
    _report(8, factor_1 <= 10 and factor_2 <= 10 and suite_elapsed < 300, detail)
