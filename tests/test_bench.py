from __future__ import annotations

import csv
import io

import pytest

from rsvp.bench import (
    ManifestRow,
    builtin_manifest,
    format_csv,
    format_table,
    graph_from_spec,
    load_manifest,
    resolve_graph_ref,
    run_bench,
    run_row,
    summary_line,
)
from rsvp.formats import MAX_VERTICES, to_dimacs
from rsvp.generators import complete, cycle, disjoint_union, paley, shrikhande


def test_spec_parsing_simple_and_nested():
    assert graph_from_spec("cycle:6") == cycle(6)
    assert graph_from_spec("shrikhande") == shrikhande()
    union = graph_from_spec("disjoint_union:complete:3:complete:3")
    assert union == disjoint_union(complete(3), complete(3))


def test_spec_parsing_permuted_is_isomorphic_relabeling():
    g = graph_from_spec("permuted:42:paley:13")
    assert (g.n, g.m) == (13, 39)
    assert g.degree_sequence() == paley(13).degree_sequence()
    assert g == graph_from_spec("permuted:42:paley:13")  # seeded, reproducible


@pytest.mark.parametrize(
    "spec",
    ["", "hypercube:3", "cycle", "cycle:x", "cycle:6:9", "permuted:z:cycle:6"],
)
def test_spec_parsing_errors(spec):
    with pytest.raises(ValueError):
        graph_from_spec(spec)


def test_resolve_graph_ref_reads_files(tmp_path):
    target = tmp_path / "c6.col"
    target.write_text(to_dimacs(cycle(6)), encoding="utf-8")
    assert resolve_graph_ref(str(target)) == cycle(6)
    assert resolve_graph_ref("gen:cycle:6") == cycle(6)


def test_load_manifest(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\n"
        "a,gen:cycle:6,gen:cycle:6,iso\n"
        "b,gen:cycle:6,gen:complete:3,\n",
        encoding="utf-8",
    )
    rows = load_manifest(manifest)
    assert rows == [
        ManifestRow("a", "gen:cycle:6", "gen:cycle:6", "iso"),
        ManifestRow("b", "gen:cycle:6", "gen:complete:3", "unknown"),
    ]


def test_load_manifest_skips_a_byte_order_mark(tmp_path):
    manifest = tmp_path / "bom.csv"
    manifest.write_text(
        "\ufeffname,graph_a,graph_b,expected\na,gen:cycle:6,gen:cycle:6,iso\n",
        encoding="utf-8",
    )
    assert load_manifest(manifest) == [ManifestRow("a", "gen:cycle:6", "gen:cycle:6", "iso")]


def test_load_manifest_rejects_missing_column(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text("name,graph_a,graph_b\na,x,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected"):
        load_manifest(manifest)


def test_load_manifest_rejects_duplicate_names(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\na,x,y,iso\na,x,y,iso\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="unique"):
        load_manifest(manifest)


def test_load_manifest_rejects_bad_label(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\na,x,y,maybe\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="maybe"):
        load_manifest(manifest)


def test_load_manifest_rejects_a_blank_name(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\n  ,gen:cycle:6,gen:cycle:6,iso\n", encoding="utf-8"
    )
    with pytest.raises(ValueError) as raised:
        load_manifest(manifest)
    assert str(raised.value) == "manifest line 2, row '': missing 'name' cell"


def test_a_blank_graph_cell_is_a_named_row_error(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text(
        "name,graph_a,graph_b,expected\nblank,,gen:cycle:6,unknown\n", encoding="utf-8"
    )
    [row] = load_manifest(manifest)
    assert row.graph_a == ""
    report = run_row(row)
    assert report.error == "empty graph reference" and report.rsvp == ""


def test_builtin_manifest_reproduces_the_verdict_table():
    reports = run_bench(builtin_manifest())
    by_name = {r.name: r for r in reports}
    for name in ("disconnected-pair", "strongly-regular-pair"):
        assert by_name[name].rsvp == "non-isomorphic"
        assert by_name[name].rsvp_ok == "yes"
        assert by_name[name].wl == "possibly-isomorphic"
        assert by_name[name].wl_ok == "no"
    for report in reports:
        if report.expected == "iso":
            assert report.rsvp == "certificates-equal"
            assert report.wl == "possibly-isomorphic"
            assert report.rsvp_ok == report.wl_ok == "yes"
    line = summary_line(reports)
    assert "rsvp: 2" in line and "wl: 0" in line


def test_row_error_is_isolated(tmp_path):
    rows = [
        ManifestRow("bad", str(tmp_path / "missing.col"), "gen:cycle:6", "unknown"),
        ManifestRow("good", "gen:cycle:6", "gen:permuted:3:cycle:6", "iso"),
        ManifestRow("huge", "gen:cycle:6", f"gen:cycle:{MAX_VERTICES + 1}", "unknown"),
    ]
    reports = run_bench(rows)
    assert reports[0].error and reports[0].rsvp == ""
    assert not reports[1].error and reports[1].rsvp_ok == "yes"
    assert "exceed the limit" in reports[2].error and reports[2].rsvp == ""


def test_row_error_names_the_failing_file(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n", encoding="utf-8")
    report = run_row(ManifestRow("bad", "gen:cycle:6", str(bad), "unknown"))
    assert report.error == f"{bad}: line 2: self-loop 'e 1 1'"
    assert report.rsvp == ""


def test_oracle_column_is_size_gated():
    skipped = run_row(ManifestRow("c20", "gen:cycle:20", "gen:permuted:3:cycle:20", "iso"))
    assert skipped.oracle == "skipped"
    ran = run_row(ManifestRow("c6", "gen:cycle:6", "gen:cycle:6", "iso"))
    assert ran.oracle == "isomorphic"
    # a skipped oracle has no time, so its cell is blank in both outputs
    records = list(csv.DictReader(io.StringIO(format_csv([skipped, ran]))))
    assert [r["oracle_ms"] for r in records] == ["", f"{ran.oracle_ms:.1f}"]
    assert records[0]["rsvp_ms"] != ""
    header, first, second = format_table([skipped, ran]).splitlines()
    column = slice(header.index("oracle_ms"), header.index("wl_ok"))
    assert first[column].strip() == ""
    assert second[column].strip() == f"{ran.oracle_ms:.1f}"


def test_timings_non_negative():
    reports = run_bench(builtin_manifest()[:3])
    for report in reports:
        assert report.wl_ms >= 0 and report.rsvp_ms >= 0 and report.oracle_ms >= 0


def test_csv_and_table_verdicts_agree():
    reports = run_bench(builtin_manifest())
    parsed = list(csv.DictReader(io.StringIO(format_csv(reports))))
    table_lines = format_table(reports).splitlines()
    header = table_lines[0].split()
    assert [row["name"] for row in parsed] == [r.name for r in reports]
    for line, record in zip(table_lines[1:], parsed):
        cells = dict(zip(header, line.split()))
        assert cells["wl"] == record["wl"]
        assert cells["rsvp"] == record["rsvp"]
        assert cells["oracle"] == record["oracle"]


def test_parallel_rows_preserve_order_and_verdicts():
    rows = builtin_manifest()
    serial = run_bench(rows, jobs=1)
    parallel = run_bench(rows, jobs=4)
    assert [r.name for r in parallel] == [r.name for r in serial]
    assert [(r.wl, r.rsvp, r.oracle) for r in parallel] == [
        (r.wl, r.rsvp, r.oracle) for r in serial
    ]


def test_empty_manifest_gives_empty_report(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text("name,graph_a,graph_b,expected\n", encoding="utf-8")
    reports = run_bench(load_manifest(manifest))
    assert reports == []
    assert format_csv(reports).count("\n") == 1  # header only
