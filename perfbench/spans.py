"""Outside-in tracing: spans around the public entry points of each module.

Each entry point is patched at the name its caller looks up (for example
``rsvp.signature.aggregate_hp``, which ``vertex_signature`` resolves through
its module globals), so the program itself is not edited. A span records its
name, start, end and parent; when it closes, its duration minus the time its
child spans cover is added to its layer's self time. Spans are folded into
per-layer totals as they close rather than kept, because ``avpd`` alone opens
tens of thousands of spans per operation.

An entry point that no longer exists is skipped, so its layer reports zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # may be dotted, e.g. "Certificate.serialize"
    layer: str

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = ("formats", "distances", "reachability", "signature", "refinement",
          "oracle", "bench")

TARGETS = (
    Target("rsvp.formats", "load_graph", "formats"),
    Target("rsvp.formats", "parse_graph", "formats"),
    Target("rsvp.bench", "load_graph", "formats"),
    Target("rsvp.signature", "distance_matrix", "distances"),
    Target("rsvp.signature", "aggregate_hp", "reachability"),
    Target("rsvp.signature", "certificate", "signature"),
    Target("rsvp.signature", "Certificate.serialize", "signature"),
    Target("rsvp.signature", "vertex_signature", "signature"),
    Target("rsvp.signature", "signature_element", "signature"),
    Target("rsvp.signature", "avpd", "signature"),
    Target("rsvp.bench", "rsvp_compare", "signature"),
    Target("rsvp.bench", "wl_compare", "refinement"),
    Target("rsvp.refinement", "color_refinement", "refinement"),
    Target("rsvp.oracle", "color_refinement", "refinement"),
    Target("rsvp.bench", "find_isomorphism", "oracle"),
    Target("rsvp.bench", "run_row", "bench"),
)


def _resolve(target: Target):
    """(owner object, attribute name) for ``target``, or None if it is gone."""
    owner = importlib.import_module(target.module)
    *path, last = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Per-layer calls and self time for the spans opened while patched."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        # open spans, innermost last: [name, start, time covered by children]
        self._stack: list[list] = []

    def _wrap(self, fn, name: str, layer: str):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            span = [name, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                self_s[layer] += duration - span[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    @contextmanager
    def patched(self):
        """Install every resolvable wrapper; restore the originals on exit."""
        installed = []
        try:
            for target in self.targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, target.name, target.layer))
                installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[t.name] for t in self.targets if t.layer == layer)
