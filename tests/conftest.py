from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

from hypothesis import strategies as st

from rsvp.generators import (
    complete,
    cycle,
    disjoint_union,
    paley,
    path,
    random_gnm,
    random_regular,
    rook,
    shrikhande,
)
from rsvp.graphs import Graph, Permutation, permute


# a small wrapper runs the code in a grandchild, so RUSAGE_CHILDREN reads that
# process's peak alone: a child forked from the test process would carry the
# test process's own peak RSS over into its ru_maxrss
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", sys.argv[1]], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak_rss_mb(code: str) -> float:
    """Peak RSS in MB of a fresh interpreter that runs ``code``, with this
    checkout's ``src`` importable and its standard output discarded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    # ru_maxrss counts KiB, bytes on macOS
    return int(done.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    """Structurally identical graph with adjacency rows in random storage
    order. Only tests may do this; it exists to prove order independence."""
    h = Graph(g.n, g.edges())
    for row in h.adjacency:
        rng.shuffle(row)
    return h


@cache
def _atlas_graphs() -> tuple:
    import networkx as nx

    return tuple(nx.graph_atlas_g())


def atlas(n: int) -> list[Graph]:
    """One graph per isomorphism class on exactly ``n`` vertices (n <= 7), from
    the graph atlas of Read and Wilson (An Atlas of Graphs, 1998) that networkx
    ships; independent of every search in the package."""
    return [Graph(n, g.edges()) for g in _atlas_graphs() if g.number_of_nodes() == n]


def random_graph(rng: random.Random, max_n: int = 10) -> Graph:
    n = rng.randint(1, max_n)
    limit = n * (n - 1) // 2
    return random_gnm(n, rng.randint(0, limit), rng.randrange(1 << 30))


def mixed_family_graph(rng: random.Random, max_n: int = 24) -> Graph:
    """Graphs drawn across all generator families, disconnected ones included."""
    pick = rng.randrange(10)
    if pick <= 2:
        return random_graph(rng, max_n)
    if pick == 3:
        n = rng.randrange(4, max_n + 1, 2)
        return random_regular(n, rng.choice([2, 3]), rng.randrange(1 << 30))
    if pick == 4:
        return cycle(rng.randint(3, max_n))
    if pick == 5:
        return path(rng.randint(1, max_n))
    if pick == 6:
        return complete(rng.randint(1, min(8, max_n)))
    if pick == 7:
        half = max_n // 2
        return disjoint_union(random_graph(rng, half), random_graph(rng, half))
    if pick == 8:
        return paley(rng.choice([5, 13, 17]))
    return rook(4) if rng.random() < 0.5 else shrikhande()


def wl_uniform_twins() -> tuple[Graph, Graph]:
    """A relabeled pair of 3-regular graphs: refinement from a uniform start
    leaves one class, and the search then charged about 40k candidate
    checks; from the distance profiles every class is a singleton (28)."""
    g = random_regular(28, 3, 1)
    return g, permute(g, Permutation.random(g.n, random.Random(1)))


@st.composite
def small_graphs(draw):
    """Graphs on up to 16 vertices: edges confined to two blocks (so some are
    disconnected), trailing isolated vertices, rows optionally shuffled."""
    core = draw(st.integers(1, 16))
    isolated = draw(st.integers(0, 16 - core))
    split = draw(st.integers(0, core))
    pairs = [(u, w) for u in range(core) for w in range(u + 1, core)
             if (u < split) == (w < split)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(core + isolated, edges)
    if draw(st.booleans()):
        g = shuffled_copy(g, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g


@st.composite
def graph_pairs(draw):
    """(g, h): g from ``small_graphs``; h an independent one, a random graph
    with g's vertex and edge counts, or a relabeled, row-shuffled twin of g."""
    g = draw(small_graphs())
    kind = draw(st.sampled_from(("independent", "same-size", "twin")))
    if kind == "independent":
        return g, draw(small_graphs())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "same-size":
        return g, random_gnm(g.n, g.m, rng.randrange(1 << 30))
    return g, shuffled_copy(permute(g, Permutation.random(g.n, rng)), rng)
