"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import rsvp.bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(workload: str, trace: bool):
    out = io.StringIO()
    result = run.measure(workload, seed=7, seconds=0, trace=trace, tiny=True, out=out)
    digests = [line for line in out.getvalue().splitlines() if line.startswith("digest ")]
    return result, digests


def test_wrappers_restore_the_original_functions():
    tracer = spans.Tracer()
    resolved = [spans._resolve(t) for t in spans.TARGETS]
    assert all(found is not None for found in resolved)
    originals = [getattr(owner, attr) for owner, attr in resolved]
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert all(getattr(owner, attr) is not original
                       for (owner, attr), original in zip(resolved, originals))
            raise RuntimeError("leave the block early")
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(resolved, originals))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_runs_end_to_end_with_identical_traced_digests(workload):
    untraced, untraced_digests = _measure(workload, trace=False)
    traced, traced_digests = _measure(workload, trace=True)
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert untraced_digests and untraced_digests == traced_digests


def test_removed_entry_point_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(rsvp.bench, "run_row")
    result, _ = _measure("certify-sparse", trace=True)
    assert result["correct"]
    assert result["metrics"]["bench.calls"]["value"] == 0
    assert result["metrics"]["reachability.calls"]["value"] > 0

    tracer = spans.Tracer([spans.Target("rsvp.signature", "no_such_function", "signature")])
    with tracer.patched():
        pass
    assert tracer.layer_calls("signature") == 0


def test_inputs_depend_on_the_seed_alone():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 3, tiny=True) == workloads.build(workload, 3, tiny=True)
        assert workloads.build(workload, 3, tiny=True) != workloads.build(workload, 4, tiny=True)


def test_compare_labels_are_independent_of_rsvp():
    for op in workloads.build("compare-mixed", 5, tiny=True):
        a, b = op.graphs
        if op.label == "iso":
            assert a.key == b.key
        else:
            assert workloads.invariant(a.n, a.edges) != workloads.invariant(b.n, b.edges)


def test_twins_are_relabelings_of_one_graph():
    ops = workloads.build("certify-dense", 5, tiny=True)
    by_group: dict[str, list] = {}
    for op in ops:
        by_group.setdefault(op.group, []).append(op.graphs[0])
    for twins in by_group.values():
        assert len(twins) == 2
        first, second = twins
        assert workloads.invariant(first.n, first.edges) == workloads.invariant(second.n, second.edges)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in Path(run.__file__).parent.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_full_workloads_hold_enough_operations_for_p90():
    for workload in workloads.WORKLOADS:
        assert len(workloads.build(workload, 1)) >= run.MIN_OPS
