"""RSVP benchmark: closed-loop certify and compare workloads on DIMACS files.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload, one fresh interpreter each

One client issues one operation at a time, single-threaded. An operation is
what ``rsvp certify --digest`` does with a file (load, certify, serialize,
sha256), or one verdict-table row through ``rsvp.bench.run_row`` (WL, RSVP
and, for n <= 16, the exact oracle). A run repeats passes over the seed's
operations until ``--seconds`` have passed and at least MIN_PASSES passes
are complete; a pass holds at least MIN_OPS distinct operations.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes that have spans around every module's entry
points (see spans.py), and prints per-layer calls and self time per pass (in
the result as a share of the traced time), exact work counts (counts.py) and
the tracing overhead. Times are scaled to a reference machine speed measured
between operations (see calibrate.py); wall-clock figures are printed too.

Every output is checked: relabeled twins and repeated passes must give equal
digests, compare verdicts must agree with independently derived labels, and
for the default seed every digest must match the one in pins.json. A
mismatch is a failed operation, never a crash. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
# p90 needs at least ten operations beyond it
MIN_OPS = 110
# every operation's latency is its median over at least this many passes
MIN_PASSES = 3
# set-up is repeated and its median reported: on a shared disk, writing its
# files takes 15 to 180 ms, so one slow repetition must not count
SETUP_REPEATS = 11

clock = time.perf_counter


def load_program() -> float:
    """Import ``rsvp`` from this checkout's ``src``; return the import time.

    Exits with status 2 when the checkout holds no ``src/rsvp``.
    """
    package = SRC / "rsvp" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = clock()
    import rsvp
    import rsvp.bench  # noqa: F401 - not imported by the package itself

    import calibrate  # noqa: F401
    import counts  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401
    elapsed = clock() - start
    if Path(rsvp.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported rsvp from {rsvp.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def certify_digest(paths) -> str:
    """The steps of ``rsvp certify --digest``, minus argument parsing and stdout."""
    import rsvp

    graph = rsvp.formats.load_graph(paths[0])
    text = rsvp.signature.certificate(graph).serialize()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_row(op, paths):
    import rsvp.bench

    return rsvp.bench.run_row(rsvp.bench.ManifestRow(op.name, paths[0], paths[1], op.label))


def verdict_problem(op, report) -> str:
    """Why a compare row's verdicts contradict its label, or ''."""
    if report.error:
        return f"row error: {report.error}"
    if op.label == "iso":
        if report.rsvp != "certificates-equal":
            return f"rsvp called an iso row {report.rsvp}"
        if report.wl != "possibly-isomorphic":
            return f"wl called an iso row {report.wl}"
        if report.oracle not in ("isomorphic", "skipped"):
            return f"oracle called an iso row {report.oracle}"
    elif report.oracle not in ("non-isomorphic", "skipped"):
        return f"oracle called a non-iso row {report.oracle}"
    return ""


class Checker:
    """Runs operations and checks every output; failures are counted, not raised."""

    def __init__(self, ops, paths, pins=None) -> None:
        self.ops, self.paths, self.pins = ops, paths, pins
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self._group_digest: dict[str, str] = {}

    def execute(self, i: int) -> float:
        """Run op ``i`` once, check it, and return its latency in seconds."""
        op, paths = self.ops[i], self.paths[i]
        self.attempted += 1
        start = clock()
        try:
            result = certify_digest(paths) if len(op.graphs) == 1 else compare_row(op, paths)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            elapsed = clock() - start
            self.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - start
        if isinstance(result, str):
            digest = result
        else:
            problem = verdict_problem(op, result)
            if problem:
                self.failures.append(f"{op.name}: {problem}")
                return elapsed
            verdicts = f"wl={result.wl} rsvp={result.rsvp} oracle={result.oracle}"
            digest = hashlib.sha256(verdicts.encode("utf-8")).hexdigest()
        self._check_digest(i, op, digest)
        return elapsed

    def _check_digest(self, i: int, op, digest: str) -> None:
        self.digests.setdefault(i, digest)
        first = self._group_digest.setdefault(op.group, digest)
        if digest != first:
            self.failures.append(f"{op.name}: digest {digest} differs from {first} "
                                 f"of its twin or an earlier pass")
        elif self.pins is not None and self.pins[op.name] != digest:
            self.failures.append(f"{op.name}: digest {digest} differs from pinned "
                                 f"{self.pins[op.name]}")


def set_up(workload: str, seed: int, tiny: bool, directory: Path):
    """Generate the inputs, write them as DIMACS into ``directory`` and warm
    up; returns (ops, paths)."""
    import workloads

    ops = workloads.build(workload, seed, tiny)
    directory.mkdir(exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        op_paths = []
        for j, instance in enumerate(op.graphs):
            path = directory / f"{i:03d}-{j}.dimacs"
            path.write_text(instance.dimacs(), encoding="utf-8")
            op_paths.append(str(path))
        paths.append(tuple(op_paths))
    # warm-up: the smallest operation once through the whole pipeline
    smallest = min(range(len(ops)),
                   key=lambda k: sum(g.n + len(g.edges) for g in ops[k].graphs))
    Checker(ops, paths).execute(smallest)
    return ops, paths


def timed_set_up(workload: str, seed: int, tiny: bool, scratch: Path):
    """Set up SETUP_REPEATS times into one directory; return the inputs and
    the median time at the reference speed."""
    import calibrate

    paced = calibrate.Paced()
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        ops, paths = set_up(workload, seed, tiny, scratch)
        times.append(paced.scale(clock() - start))
    return ops, paths, statistics.median(times)


def load_pins(workload: str, seed: int, ops):
    """The pinned digest of every operation, by name, when ``seed`` is pinned."""
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    if seed != pinned["seed"]:
        return None
    digests = pinned[workload]
    if set(digests) != {op.name for op in ops}:
        raise ValueError(f"pins.json does not list the operations of {workload}; "
                         "regenerate it with perfbench/pin.py")
    return digests


def _latency_metrics(samples: list[list[float]], prefix: str = "") -> dict:
    latencies = [statistics.median(s) for s in samples]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        f"{prefix}wall_s": (sum(latencies), "s"),
        f"{prefix}op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        f"{prefix}op_p90_ms": (deciles[8] * 1000.0, "ms"),
    }


def measure_untraced(checker: Checker, seconds: float):
    """Passes until ``seconds`` have passed and MIN_PASSES are complete.

    An operation's latency is its median over the passes, at the reference
    speed (calibrate.py). ``wall_s`` sums these latencies: one pass's time.
    The wall-clock figures are printed as ``measured.*``.
    """
    import calibrate

    ops = checker.ops
    scaled: list[list[float]] = [[] for _ in ops]
    measured: list[list[float]] = [[] for _ in ops]
    paced = calibrate.Paced()
    start = clock()
    passes = i = 0
    while passes < MIN_PASSES or clock() - start < seconds:
        as_measured = checker.execute(i)
        scaled[i].append(paced.scale(as_measured))
        measured[i].append(as_measured)
        i += 1
        if i == len(ops):
            passes, i = passes + 1, 0
    metrics = _latency_metrics(scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, _latency_metrics(measured, "measured."), passes


def measure_traced(checker: Checker, seconds: float):
    import calibrate
    import counts
    import spans

    ops = checker.ops
    paced = calibrate.Paced()
    tracer = spans.Tracer()
    signature_calls = "rsvp.signature.vertex_signature"
    computed = 0  # vertex signatures computed on non-iso rows
    untraced: list[float] = []
    traced: list[float] = []
    traced_as_measured = 0.0  # the base of the self-time shares
    start = clock()
    # untraced and traced passes alternate, so drift in the machine's speed
    # does not show up as tracing overhead
    while True:
        untraced.append(sum(paced.scale(checker.execute(i)) for i in range(len(ops))))
        if traced and clock() - start >= seconds:
            break
        with tracer.patched():
            total = 0.0
            for i, op in enumerate(ops):
                before = tracer.calls[signature_calls]
                as_measured = checker.execute(i)
                total += paced.scale(as_measured)
                traced_as_measured += as_measured
                if op.label == "non-iso":
                    computed += tracer.calls[signature_calls] - before
            traced.append(total)
        if clock() - start >= seconds:
            break
    passes = len(traced)

    # self time goes into the result as a share of the traced passes: a layer
    # a workload never enters reads 0 on every run, which is no time at all
    metrics: dict[str, tuple] = {}
    self_s: dict[str, tuple] = {}
    for layer in spans.LAYERS:
        if layer == "signature":
            for key, attr in (("element_calls", "signature_element"), ("avpd_calls", "avpd")):
                metrics[f"signature.{key}"] = (tracer.calls[f"rsvp.signature.{attr}"] // passes,
                                               "count")
        else:
            metrics[f"{layer}.calls"] = (tracer.layer_calls(layer) // passes, "count")
        metrics[f"{layer}.self_pct"] = (100.0 * tracer.self_s[layer] / traced_as_measured, "%")
        self_s[f"{layer}.self_s"] = (tracer.self_s[layer] / passes, "s")

    exact, needed = counts.pass_counts(ops)
    for key, unit in counts.UNITS.items():
        metrics[key] = (exact[key], unit)
    ratio = needed * passes / computed if computed else 0.0
    metrics["signature.useful_sig_ratio"] = (ratio, "ratio")
    traced_wall, untraced_wall = statistics.median(traced), statistics.median(untraced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics, self_s


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            import_s: float = 0.0, tiny: bool = False, out=sys.stdout) -> dict:
    """Set up, run and check one workload; returns the result object."""
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        ops, paths, setup_s = timed_set_up(workload, seed, tiny, scratch)
        pins = None if tiny else load_pins(workload, seed, ops)
        checker = Checker(ops, paths, pins)
        if trace:
            metrics, printed_only = measure_traced(checker, seconds)
            passes = None
        else:
            metrics, printed_only, passes = measure_untraced(checker, seconds)
            metrics = {"setup_s": (import_s + setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    for i in sorted(checker.digests):
        print(f"digest {workload} {ops[i].name} {checker.digests[i]}", file=out)
    for failure in checker.failures[:20]:
        print(f"FAILED {workload} {failure}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **printed_only}.items():
        print(f"{workload} {name} {value:.6g} {unit}", file=out)
    failed = len(checker.failures)
    print(f"{workload} error_rate {failed / checker.attempted:.6g} "
          f"({failed} failed of {checker.attempted} attempted"
          + (f", {passes} passes" if passes is not None else "") + ")", file=out)
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="certify-sparse, certify-dense, compare-mixed, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_program()
    import workloads

    if args.workload == "all":
        # a fresh interpreter per workload: nothing (hash seed, the prime
        # table, ru_maxrss) carries over from one workload to the next
        status = 0
        for workload in workloads.WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False)
            status = max(status, child.returncode)
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    import calibrate

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s * calibrate.REFERENCE_S / calibrate.probe())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
