"""Mutation check for the guards of the contract: each mutant must fail Tier-1.

Run from anywhere, with the test dependencies installed::

    python3 mutants/run.py              # every mutant
    python3 mutants/run.py count-off    # only the named ones
    python3 mutants/run.py --list

Each entry of ``MUTANTS`` names one small edit to one file under ``src/``:
the text it replaces (which must occur exactly once), the text it puts in
its place, and what the edit breaks. For each mutant the repository is
copied into a temporary directory (``TMPDIR`` chooses where), the edit is
applied there, never in the checkout, and Tier-1 runs in the copy with
``-x``. The unmutated copy runs first and must pass. A mutant is *killed*
when Tier-1 fails or times out, and *survives* when it passes. A mutant
listed as equivalent cannot change any result, so it is expected to
survive. The exit status is 1 when any outcome differs from the expected
one: a guard whose mutant survives is a guard that no test holds.

Standard library only; not part of Tier-1 (a full run takes minutes).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".perfbench_work", "mutants")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    breaks: str
    equivalent: bool = False


MUTANTS = [
    Mutant("count-off", "src/rsvp/signature.py",
           "if not unmatched[sig]:",
           "if unmatched[sig] < 0:",
           "rsvp_compare lets one g2 line that g1 lacks pass the count-off"),
    Mutant("uncapped-orbit-stop", "src/rsvp/oracle.py",
           "stop = min(spent + _ORBIT_SEARCH_STREAMS * n, _ORBIT_GRAPH_STREAMS * n)",
           "stop = spent + _ORBIT_SEARCH_STREAMS * n",
           "a later orbit search overruns the graph's stream budget"),
    Mutant("verify-mapping-last-row", "src/rsvp/graphs.py",
           "for u, row in enumerate(g1.adjacency))",
           "for u, row in enumerate(g1.adjacency[:-1]))",
           "nothing: both graphs are symmetric, so the other rows fix the last",
           equivalent=True),
    Mutant("helper-share-dropped", "src/rsvp/signature.py",
           "line = dict(zip(mine + share, texts))",
           "line = dict(zip(mine, texts))",
           "the helper's lines never reach the certificate"),
    Mutant("overlapping-halves", "src/rsvp/signature.py",
           "mine = roots[::2] if share else roots",
           "mine = roots if share else roots",
           "this process also computes the helper's share: same bytes, no gain"),
    Mutant("helper-exits-by-sys-exit", "src/rsvp/signature.py",
           "os._exit(code)",
           "__import__('sys').exit(code)",
           "the helper unwinds the caller's stack and runs its exit hooks"),
    Mutant("root-echo-unchecked", "src/rsvp/signature.py",
           "if answered != roots:",
           "if False:",
           "a stale reply is read as the answer to a later request"),
    Mutant("interrupt-keeps-helper", "src/rsvp/signature.py",
           "        if share:\n            _stop_helper()\n        raise",
           "        raise",
           "an interrupted certificate leaves its reply for the next one"),
    Mutant("helper-on-one-cpu", "src/rsvp/signature.py",
           "return cpus >= 2 and",
           "return cpus >= 1 and",
           "a helper is forked where it can only share the one CPU"),
    Mutant("helper-beside-threads", "src/rsvp/signature.py",
           "threading.active_count() == 1",
           "threading.active_count() >= 1",
           "a process with other threads forks"),
]


def apply(mutant: Mutant, root: Path) -> None:
    target = root / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: {mutant.path} holds its old text {found} times, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def tier1(root: Path) -> tuple[str, float]:
    """'passed', 'failed' or 'timeout', and the seconds Tier-1 took in ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    try:
        done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    return ("passed" if done.returncode == 0 else "failed"), time.monotonic() - start


def run(mutant: Mutant | None) -> tuple[str, float]:
    with tempfile.TemporaryDirectory(prefix="rsvp-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if mutant is not None:
            apply(mutant, copy)
        return tier1(copy)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in chosen:
            print(f"{m.name:26} {m.path:24} {'equivalent' if m.equivalent else ''}")
        return 0

    outcome, seconds = run(None)
    print(f"{'(unmutated)':26} {outcome:22} {seconds:6.1f} s", flush=True)
    if outcome != "passed":
        print("error: Tier-1 fails without any mutant, so no outcome below would mean anything",
              file=sys.stderr)
        return 2
    unexpected = 0
    for m in chosen:
        outcome, seconds = run(m)
        killed = outcome != "passed"
        verdict = "killed" if killed else "survived"
        if killed == m.equivalent:
            unexpected += 1
            verdict += " (expected equivalent)" if m.equivalent else " (NOT KILLED)"
        elif m.equivalent:
            verdict += " (equivalent)"
        print(f"{m.name:26} {verdict:22} {seconds:6.1f} s  {m.path}: {m.breaks}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
