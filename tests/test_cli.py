from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from rsvp.cli import main
from rsvp.formats import MAX_VERTICES, parse_dimacs, parse_edge_list, to_dimacs, to_edge_list
from rsvp.generators import (cycle, graph_from_spec, paley, path, random_gnm, rook, shrikhande,
                              worked_example)
from rsvp.graphs import Graph
from rsvp.signature import certificate, rsvp_compare, verify_mapping


@pytest.fixture
def graph_file(tmp_path):
    def write(name, graph, serializer=to_dimacs):
        target = tmp_path / name
        target.write_text(serializer(graph), encoding="utf-8")
        return str(target)

    return write


def test_gen_writes_dimacs(tmp_path, capsys):
    out = tmp_path / "c6.col"
    assert main(["gen", "cycle", "6", "-o", str(out)]) == 0
    assert parse_dimacs(out.read_text(encoding="utf-8")) == cycle(6)


def test_gen_paley_5_is_the_5_cycle(capsys):
    assert main(["gen", "paley", "5"]) == 0
    assert parse_dimacs(capsys.readouterr().out) == cycle(5)


def test_gen_shrikhande_counts(capsys):
    assert main(["gen", "shrikhande"]) == 0
    g = parse_dimacs(capsys.readouterr().out)
    assert (g.n, g.m) == (16, 48)


def test_gen_edgelist_format(capsys):
    assert main(["gen", "path", "3", "--format", "edgelist"]) == 0
    assert parse_edge_list(capsys.readouterr().out).degree_sequence() == (1, 1, 2)


def test_gen_rejects_unknown_family(capsys):
    assert main(["gen", "moebius", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_refuses_a_graph_over_the_vertex_limit(capsys):
    assert main(["gen", "cycle", str(MAX_VERTICES + 1)]) == 2
    assert "exceed the limit" in capsys.readouterr().err


def test_gen_rejects_leftover_params(capsys):
    assert main(["gen", "cycle", "6", "7"]) == 2
    assert "unused" in capsys.readouterr().err


def test_certify_k2(graph_file, capsys):
    path = graph_file("k2.col", random_gnm(2, 1, 0))
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == "0/1,0/1\n0/1,0/1\n"


def test_certify_same_graph_shuffled_files_identical_bytes(tmp_path, capsys):
    rng = random.Random(5)
    g = random_gnm(12, 20, seed=3)
    outputs = []
    for i in range(3):
        shuffled = g.edges()
        rng.shuffle(shuffled)
        lines = ["p edge 12 20"] + [f"e {u + 1} {w + 1}" for u, w in shuffled]
        target = tmp_path / f"g{i}.col"
        target.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["certify", str(target)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_certify_worked_example_contains_golden_element(graph_file, capsys):
    path = graph_file("fixture.col", worked_example())
    assert main(["certify", path]) == 0
    assert "12100/1" in capsys.readouterr().out


def test_certify_digest_goes_to_stderr(graph_file, capsys):
    # the streamed output and digest are those of the whole serialized text
    for name, graph in (("c6.col", cycle(6)), ("worked.col", worked_example())):
        path = graph_file(name, graph)
        assert main(["certify", path, "--digest"]) == 0
        captured = capsys.readouterr()
        text = certificate(graph).serialize()
        assert captured.out == text
        assert captured.err == f"sha256:{hashlib.sha256(text.encode('utf-8')).hexdigest()}\n"


def test_certify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p edge 2 1\ne 1 2\n"))
    assert main(["certify", "-"]) == 0
    assert capsys.readouterr().out == "0/1,0/1\n0/1,0/1\n"


def test_certify_ignores_a_byte_order_mark(tmp_path, capsys):
    outputs = []
    for serializer in (to_dimacs, to_edge_list):
        for prefix in ("", "\ufeff"):
            target = tmp_path / "g.txt"
            target.write_text(prefix + serializer(worked_example()), encoding="utf-8")
            assert main(["certify", str(target)]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0] and all(out == outputs[0] for out in outputs)


def test_certify_missing_file(capsys):
    assert main(["certify", "/nonexistent/g.col"]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n", encoding="utf-8")
    assert main(["certify", str(bad)]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_certify_refuses_oversized_vertex_count(tmp_path, capsys):
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 1000000000 0\n", encoding="utf-8")
    assert main(["certify", str(huge)]) == 2
    assert "line 1: 1000000000 vertices exceed the limit" in capsys.readouterr().err


def test_certify_warns_on_duplicate_edges(tmp_path, capsys):
    dup = tmp_path / "dup.col"
    dup.write_text("p edge 2 1\ne 1 2\ne 2 1\n", encoding="utf-8")
    assert main(["certify", str(dup)]) == 0
    assert "duplicate" in capsys.readouterr().err


def test_compare_srg_pair_rsvp(graph_file, capsys):
    a = graph_file("s.col", shrikhande())
    b = graph_file("r.col", rook(4))
    assert main(["compare", a, b, "--method", "rsvp"]) == 1
    assert "non-isomorphic" in capsys.readouterr().out


def test_compare_degree_sequence_gate(graph_file, capsys):
    a = graph_file("star.col", Graph(4, [(0, 1), (0, 2), (0, 3)]))
    b = graph_file("path.col", path(4))
    assert main(["compare", a, b]) == 1
    assert capsys.readouterr().out == "non-isomorphic (degree sequences differ)\n"


def test_compare_srg_pair_wl(graph_file, capsys):
    a = graph_file("s.col", shrikhande())
    b = graph_file("r.col", rook(4))
    assert main(["compare", a, b, "--method", "wl"]) == 0
    assert "possibly isomorphic (WL inconclusive)" in capsys.readouterr().out


def test_compare_srg_pair_oracle(graph_file, capsys):
    a = graph_file("s.col", shrikhande())
    b = graph_file("r.col", rook(4))
    assert main(["compare", a, b, "--method", "oracle"]) == 1


def test_compare_equal_certificates_checks_the_mapping(graph_file, capsys):
    g = random_gnm(10, 22, seed=1)
    a = graph_file("a.col", g)
    b = graph_file("b.col", g)
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out == "certificates equal; candidate mapping verified\n"


def test_compare_reports_whether_the_relabeled_mapping_verified(graph_file, capsys):
    g, h = paley(13), graph_from_spec("permuted:42:paley:13")
    a = graph_file("a.col", g)
    b = graph_file("b.col", h, to_edge_list)
    verified = verify_mapping(g, h, rsvp_compare(g, h).mapping)
    assert main(["compare", a, b]) == 0
    word = "verified" if verified else "unverified"
    assert capsys.readouterr().out == f"certificates equal; candidate mapping {word}\n"


@pytest.mark.parametrize("args", [
    ["compare", "a.col", "b.col", "--verify"],
    ["compare", "a.col", "b.col", "--format", "dimacs"],
    ["certify", "a.col", "--format", "edgelist"],
])
def test_removed_flags_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_missing_file(graph_file, capsys):
    a = graph_file("a.col", cycle(3))
    assert main(["compare", a, "/nonexistent/b.col"]) == 2


def test_compare_oracle_size_gate_and_force(graph_file, capsys):
    a = graph_file("a.col", paley(17))
    b = graph_file("b.col", paley(17))
    assert main(["compare", a, b, "--method", "oracle"]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["compare", a, b, "--method", "oracle", "--force"]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


def test_bench_builtin_table(capsys):
    assert main(["bench", "tables-builtin"]) == 0
    out = capsys.readouterr().out
    assert "strongly-regular-pair" in out
    assert "summary:" in out


def test_bench_csv_flag(capsys):
    assert main(["bench", "tables-builtin", "--csv", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("name,")
    assert "summary:" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(jobs, capsys):
    assert main(["bench", "tables-builtin", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert f"jobs must be at least 1, got {jobs}" in captured.err
    assert captured.out == ""


def test_bench_jobs_capped_at_cpu_count(monkeypatch, capsys):
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("rsvp.bench.os.cpu_count", lambda: 2)
    monkeypatch.setattr("rsvp.bench.concurrent.futures.ProcessPoolExecutor", RecordingPool)
    assert main(["bench", "tables-builtin", "--jobs", "64"]) == 0
    assert started == [2]
    assert "summary:" in capsys.readouterr().out


def test_bench_manifest_file_and_error_row(tmp_path, capsys):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\n"
        "ok,gen:cycle:5,gen:permuted:2:cycle:5,iso\n"
        f"broken,{tmp_path / 'missing.col'},gen:cycle:5,unknown\n",
        encoding="utf-8",
    )
    assert main(["bench", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "certificates-equal" in out
    assert "errors: 1" in out


def test_bench_manifest_row_with_missing_cells(tmp_path, capsys):
    manifest = tmp_path / "short.csv"
    manifest.write_text("name,graph_a,graph_b,expected\nx,gen:cycle:6\n", encoding="utf-8")
    assert main(["bench", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'x'" in err and "'graph_b'" in err


def test_bench_unreadable_manifest(capsys):
    assert main(["bench", "/nonexistent/manifest.csv"]) == 2


def test_certify_bytes_do_not_depend_on_hash_seed(graph_file):
    path = graph_file("paley13.col", paley(13))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "rsvp", "certify", path],
                              env=env, capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]
