"""Graph isomorphism testing toolkit.

The primary test builds, for every vertex, an exact-rational signature from
prime-encoded reachability distances in the vertex-deleted graph; the sorted
multiset of signatures is the graph's certificate. Certificates of isomorphic
graphs are always equal (one-sided error), and in practice they separate many
graph families that defeat color refinement. A 1-WL baseline, an exact
small-graph oracle, generators, file formats, and a benchmark harness round
out the package.
"""

from .formats import (
    GraphFormatWarning,
    ParseError,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    to_dimacs,
    to_edge_list,
)
from .generators import (
    complete,
    cycle,
    paley,
    path,
    random_gnm,
    random_regular,
    rook,
    shrikhande,
    worked_example,
)
from .graphs import Graph, Permutation, disjoint_union, permute, verify_mapping
from .oracle import find_isomorphism
from .reachability import Group, HopParentIndex, aggregate_hp
from .refinement import Coloring, WLVerdict, color_refinement, wl_compare
from .signature import (
    Certificate,
    CertificatesEqual,
    NonIsomorphic,
    Verdict,
    certificate,
    rsvp_compare,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificatesEqual",
    "Coloring",
    "Graph",
    "GraphFormatWarning",
    "Group",
    "HopParentIndex",
    "NonIsomorphic",
    "ParseError",
    "Permutation",
    "Verdict",
    "WLVerdict",
    "aggregate_hp",
    "certificate",
    "color_refinement",
    "complete",
    "cycle",
    "disjoint_union",
    "find_isomorphism",
    "load_graph",
    "paley",
    "parse_dimacs",
    "parse_edge_list",
    "parse_graph",
    "path",
    "permute",
    "random_gnm",
    "random_regular",
    "rook",
    "rsvp_compare",
    "shrikhande",
    "to_dimacs",
    "to_edge_list",
    "verify_mapping",
    "wl_compare",
    "worked_example",
]
