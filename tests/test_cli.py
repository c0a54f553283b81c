from __future__ import annotations

import csv
import hashlib
import io
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from conftest import peak_rss_mb
from rsvp.cli import main
from rsvp.formats import MAX_VERTICES, parse_dimacs, parse_edge_list, to_dimacs, to_edge_list
from rsvp.generators import (cycle, graph_from_spec, paley, path, random_gnm, rook, shrikhande,
                              worked_example)
from rsvp.graphs import Graph
from rsvp.signature import certificate


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


def test_gen_refuses_a_union_that_a_negative_size_would_bring_under_the_limit(capsys):
    assert main(["gen", "disjoint_union", "cycle", "6000", "random_gnm", "-2000", "0", "1"]) == 2
    assert "6000 vertices exceed the limit" in capsys.readouterr().err


def test_gen_rejects_leftover_params(capsys):
    assert main(["gen", "cycle", "6", "7"]) == 2
    assert "unused" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["paley:13", "permuted:5:disjoint_union:rook:2:worked_example"])
def test_gen_writes_the_dimacs_text_of_its_spec(spec, capsys, tmp_path):
    # and the edge-list text, to standard output and to an -o file alike
    graph = graph_from_spec(spec)
    assert main(["gen", *spec.split(":")]) == 0
    assert capsys.readouterr().out == to_dimacs(graph)
    target = tmp_path / "out.txt"
    for fmt, writer in (("dimacs", to_dimacs), ("edgelist", to_edge_list)):
        args = ["gen", *spec.split(":"), "--format", fmt]
        assert main(args) == 0
        assert capsys.readouterr().out == writer(graph)
        assert main([*args, "-o", str(target)]) == 0
        assert target.read_bytes() == writer(graph).encode("utf-8")


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_gen_writes_a_dense_graph_without_a_list_of_its_edges(fmt):
    # m = 1,124,250: the 15 MB text is written one adjacency row at a time;
    # the sorted edge tuples and their line strings took about 200 MB, and
    # the whole text, joined before one write, about 72 MB
    write = f"from rsvp.cli import main; main(['gen', 'complete:1500', '--format', '{fmt}'])"
    assert peak_rss_mb(write) < 50


def test_an_oversized_spec_is_named_once_by_every_command(tmp_path, capsys):
    expected = f"error: gen:cycle:5000: 5000 vertices exceed the limit of {MAX_VERTICES}\n"
    assert main(["gen", "cycle", "5000"]) == 2
    assert capsys.readouterr().err == expected
    assert main(["certify", "gen:cycle:5000"]) == 2
    assert capsys.readouterr().err == expected
    manifest = tmp_path / "huge.csv"
    manifest.write_text("name,graph_a,graph_b,expected\nhuge,gen:cycle:5,gen:cycle:5000,\n",
                        encoding="utf-8")
    assert main(["bench", str(manifest), "--csv"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["error"].count("gen:cycle:5000") == 1
    assert "exceed the limit" in row["error"]


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


def test_certify_rejects_an_empty_graph_reference(capsys):
    # not a read of the current directory
    assert main(["certify", ""]) == 2
    assert capsys.readouterr().err == "error: empty graph reference\n"


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


def test_certify_reads_a_generator_spec_as_the_file_gen_writes(tmp_path, capsys):
    target = tmp_path / "paley13.col"
    assert main(["gen", "paley", "13", "-o", str(target)]) == 0
    assert main(["certify", str(target)]) == 0
    from_file = capsys.readouterr().out
    assert main(["certify", "gen:paley:13"]) == 0
    assert capsys.readouterr().out == from_file != ""


def test_a_file_named_like_a_spec_is_read_through_dot_slash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("gen:cycle:4").write_text(to_dimacs(cycle(5)), encoding="utf-8")
    outputs = []
    for ref in ("./gen:cycle:4", "gen:cycle:5", "gen:cycle:4"):
        assert main(["certify", ref]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]


def test_compare_reads_generator_specs(capsys):
    assert main(["compare", "gen:shrikhande", "gen:rook:4"]) == 1
    assert capsys.readouterr().out.startswith("non-isomorphic")


def test_compare_reads_stdin_next_to_a_spec_and_names_it(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_dimacs(cycle(5)) + "e 2 1\n"))
    assert main(["compare", "-", "gen:permuted:3:cycle:5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("certificates equal")
    assert captured.err == "warning: -: 1 duplicate edge line(s) collapsed\n"


def test_compare_refuses_stdin_twice_before_reading_it(monkeypatch, capsys):
    class Unread(io.StringIO):
        def read(self, *args):
            raise AssertionError("standard input was read")

    monkeypatch.setattr("sys.stdin", Unread())
    assert main(["compare", "-", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: both graphs are '-', but standard input can be read only once\n"


def test_compare_error_names_the_failing_file(graph_file, tmp_path, capsys):
    a = graph_file("a.col", cycle(3))
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n", encoding="utf-8")
    assert main(["compare", a, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: self-loop 'e 1 1'\n"
    bad.write_bytes(b"p edge 2 1\ne 1 \xff\n")
    assert main(["compare", a, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert main(["compare", a, "gen:moebius:5"]) == 2
    assert capsys.readouterr().err.startswith("error: gen:moebius:5: unknown family 'moebius'")


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


def test_compare_wl_separates_a_path_from_a_cycle(capsys):
    assert main(["compare", "gen:path:4", "gen:cycle:4", "--method", "wl"]) == 1
    assert capsys.readouterr().out.startswith("non-isomorphic")


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
    # the first search proves the small vertex-transitive pairs; it runs out
    # of budget on the disjoint cycles, the 3-regular graph and the
    # Shrikhande graph, which the search anchored on one matched signature
    # then proves; on paley:29 both run out, so no mapping is proved
    for spec, word in [("paley:13", "verified"), ("rook:4", "verified"),
                       ("cycle:9", "verified"),
                       ("disjoint_union:cycle:3:cycle:4", "verified"),
                       ("disjoint_union:complete:3:cycle:5", "verified"),
                       ("random_regular:60:3:2", "verified"),
                       ("shrikhande", "verified"), ("paley:29", "unverified")]:
        a = graph_file("a.col", graph_from_spec(spec))
        b = graph_file("b.col", graph_from_spec(f"permuted:42:{spec}"), to_edge_list)
        assert main(["compare", a, b]) == 0
        assert capsys.readouterr().out == f"certificates equal; candidate mapping {word}\n"
    assert main(["compare", "gen:paley:13", "gen:permuted:42:paley:13"]) == 0
    assert capsys.readouterr().out == "certificates equal; candidate mapping verified\n"


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
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err == ("error: oracle search refused for n=17 (limit 16); "
                           "pass --force to override\n")
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


def test_bench_prints_every_reader_warning_with_its_file(tmp_path, capsys):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    for target in (a, b):
        # one duplicate edge line each
        target.write_text("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n", encoding="utf-8")
    manifest = tmp_path / "dups.csv"
    manifest.write_text(f"name,graph_a,graph_b,expected\nab,{a},{b},iso\nba,{b},{a},iso\n",
                        encoding="utf-8")
    assert main(["bench", str(manifest)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: {ref}: 1 duplicate edge line(s) collapsed" for ref in (a, b, b, a)]
    assert "errors: 0" in captured.out


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
