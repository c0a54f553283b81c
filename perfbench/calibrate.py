"""Machine-speed probe: times are reported as if run at a reference speed.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python kernel took anywhere from 1.0x to 1.6x its fastest time within
one minute on a 2-vCPU VM, with no steal time and no other process of ours
running. That drift moved every wall-clock metric of one run against the
next by far more than any bound a regression check could use.

So a short kernel, independent of the program under test and using the same
kinds of work (breadth-first search over lists and a deque, ``Fraction``
products of prime powers, tuple sorting), is timed between operations. Each
measured time is multiplied by ``REFERENCE_S`` over the kernel time around it.
The ratio of an operation to the kernel run beside it stayed within 4% over
that minute while raw times swung by 60%.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from time import perf_counter

# the kernel's time at the reference speed (seconds); times are scaled to it
REFERENCE_S = 0.002


def _kernel() -> int:
    n = 40
    adjacency = [[(v + d) % n for d in (1, -1, 7, -7)] for v in range(n)]
    total = 0
    for s in range(n):
        dist: list[int | None] = [None] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist)
    product = Fraction(1)
    for k in range(1, 150):
        product *= Fraction(2 * k + 1, k + 3) * 3 ** (k % 5)
    keys = sorted((i * 7919 % 1009, i) for i in range(800))
    return total + product.numerator.bit_length() + keys[0][1]


def probe() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Paced:
    """Scales times to the reference speed, using the mean of the probes
    just before and just after each timed call."""

    def __init__(self) -> None:
        self._last = probe()

    def scale(self, elapsed: float) -> float:
        """``elapsed`` seconds, measured just now, at the reference speed."""
        now = probe()
        scaled = elapsed * 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scaled
