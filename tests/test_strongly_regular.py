"""The paper's strongly-regular claim on its first hard pairs.

Each pair below has equal strongly-regular parameters, so colour refinement
(1-WL) cannot tell its graphs apart, and networkx shows that they are not
isomorphic. RSVP's certificates must separate every pair and stay equal on
relabeled twins.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from hard_families import NON_GROUP_ROWS, Z5_ROWS, chang_graph, latin_square_graph, triangular_graph
from test_oracle import to_networkx
from rsvp.graphs import Permutation, permute, verify_mapping
from rsvp.refinement import WLVerdict, wl_compare
from rsvp.signature import CertificatesEqual, NonIsomorphic, rsvp_compare

GRAPHS = {
    "L(Z5)": (latin_square_graph(Z5_ROWS), (25, 12, 5, 6)),
    "L(non-group)": (latin_square_graph(NON_GROUP_ROWS), (25, 12, 5, 6)),
    "T(8)": (triangular_graph(), (28, 12, 6, 4)),
    "Chang-1": (chang_graph(1), (28, 12, 6, 4)),
    "Chang-2": (chang_graph(2), (28, 12, 6, 4)),
    "Chang-3": (chang_graph(3), (28, 12, 6, 4)),
}
PAIRS = [("L(Z5)", "L(non-group)"),
         *combinations(("T(8)", "Chang-1", "Chang-2", "Chang-3"), 2)]


def srg_parameters(h: nx.Graph) -> tuple[int, int, int, int]:
    """(n, k, λ, μ) read from the edges; fails unless h is strongly regular."""
    (k,) = {d for _, d in h.degree()}
    common = {True: set(), False: set()}
    for u, w in combinations(h, 2):
        common[h.has_edge(u, w)].add(len(set(h[u]) & set(h[w])))
    ((lam,), (mu,)) = common[True], common[False]
    return h.number_of_nodes(), k, lam, mu


def clique_counts(h: nx.Graph) -> Counter:
    """The number of cliques of each size: an isomorphism invariant."""
    return Counter(len(c) for c in nx.enumerate_all_cliques(h))


@pytest.mark.parametrize("name", GRAPHS)
def test_the_graphs_are_strongly_regular(name):
    g, parameters = GRAPHS[name]
    assert srg_parameters(to_networkx(g)) == parameters


def test_the_latin_pair_differs_in_its_four_cliques():
    counts = [clique_counts(to_networkx(GRAPHS[name][0]))[4] for name in PAIRS[0]]
    assert counts == [75, 79]


@pytest.mark.parametrize("a, b", PAIRS)
def test_rsvp_separates_each_pair_where_wl_cannot(a, b):
    g, h = GRAPHS[a][0], GRAPHS[b][0]
    # same parameters, yet not isomorphic: a clique count differs
    assert GRAPHS[a][1] == GRAPHS[b][1]
    assert clique_counts(to_networkx(g)) != clique_counts(to_networkx(h))
    assert wl_compare(g, h) is WLVerdict.POSSIBLY_ISOMORPHIC
    assert rsvp_compare(g, h) == NonIsomorphic("certificates differ")


# whether the budgeted searches prove a twin depends on the relabeling for
# L(Z5), L(non-group) and Chang-1 (seed 2 is pinned); none of 20 relabelings
# proves Chang-2 or Chang-3, whose twins read unverified
@pytest.mark.parametrize("name, verified", [
    ("L(Z5)", True), ("L(non-group)", False), ("T(8)", True),
    ("Chang-1", True), ("Chang-2", False), ("Chang-3", False),
])
def test_relabeled_twins_have_equal_certificates(name, verified):
    g = GRAPHS[name][0]
    h = permute(g, Permutation.random(g.n, random.Random(2)))
    verdict = rsvp_compare(g, h)
    assert isinstance(verdict, CertificatesEqual)
    assert (verdict.mapping is not None) == verified
    if verified:
        assert verify_mapping(g, h, verdict.mapping)
