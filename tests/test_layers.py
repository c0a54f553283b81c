"""Every module of the package imports only from a layer below its own.

``graphs`` holds what the rest share; the readers, the generators and the
algorithms sit on it alone, the oracle on refinement, the signature test on
those, and the harness and the command line on top. A sideways or upward
import is how a cycle starts: ``signature`` cannot import the oracle while the
oracle imports ``signature``. Checking the imports stands in for a lint rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rsvp

LAYERS = (
    ("graphs",),
    ("formats", "generators", "distances", "reachability", "refinement"),
    ("oracle",),
    ("signature",),
    ("bench",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
ENTRY_POINTS = ("__init__", "__main__")


def package_sources() -> dict[str, str]:
    """Module name -> source text for every module but the entry points."""
    paths = sorted(Path(rsvp.__file__).parent.glob("*.py"))
    return {path.stem: path.read_text(encoding="utf-8")
            for path in paths if path.stem not in ENTRY_POINTS}


def relative_imports(source: str) -> list[str]:
    """The package modules that ``source`` imports, in order of appearance."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                modules.append(node.module.split(".")[0])
            else:
                modules.extend(alias.name for alias in node.names)
    return modules


def layer_faults(sources: dict[str, str]) -> list[str]:
    """A module missing from ``LAYERS``, and ``importer→imported`` for each
    import of a module in the importer's layer or above it (a module with no
    layer counts as the top)."""
    faults = [f"{name} has no layer" for name in sources if name not in RANK]
    for name, source in sources.items():
        if name in RANK:
            faults += [f"{name}→{target}" for target in relative_imports(source)
                       if RANK.get(target, len(LAYERS)) >= RANK[name]]
    return faults


def test_every_module_imports_only_from_lower_layers():
    sources = package_sources()
    assert sorted(sources) == sorted(RANK)
    assert layer_faults(sources) == []


def test_the_check_sees_sideways_upward_and_unlayered_imports():
    sources = {
        "graphs": "import random\nfrom dataclasses import dataclass\n",
        "generators": "from .graphs import Graph\nfrom .formats import MAX_VERTICES\n",
        "refinement": "from . import graphs, generators\n",
        "oracle": "from .refinement import color_refinement\n"
                  "def late():\n    from .signature import certificate\n",
        "bench": "from .scratch import helper\n",
        "scratch": "from .graphs import Graph\n",
    }
    assert layer_faults(sources) == [
        "scratch has no layer", "generators→formats", "refinement→generators",
        "oracle→signature", "bench→scratch"]
