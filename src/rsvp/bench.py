"""Manifest-driven benchmark harness producing verdict tables.

A manifest is a CSV with columns ``name,graph_a,graph_b,expected``. Graph
references, read by :func:`resolve_graph_ref` here and on the command line,
are file paths, ``-`` for standard input, or inline generator specs (``gen:``
prefix), e.g.::

    gen:cycle:6
    gen:random_gnm:50:150:7
    gen:disjoint_union:complete:3:complete:3
    gen:permuted:42:paley:13        (seeded random relabeling of a spec)

``expected`` is ``iso``, ``non-iso``, or ``unknown`` (blank); unknown rows
run without agreement scoring so externally obtained benchmark files can be
ingested without curated labels. A failing row reports its error and never
aborts the run.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from .formats import ParseError, load_graph
from .generators import graph_from_spec
from .graphs import Graph
from .oracle import ORACLE_SIZE_LIMIT, find_isomorphism
from .refinement import WLVerdict, wl_compare
from .signature import NonIsomorphic, rsvp_compare

EXPECTED_LABELS = ("iso", "non-iso", "unknown")


@dataclass(frozen=True)
class ManifestRow:
    name: str
    graph_a: str
    graph_b: str
    expected: str = "unknown"


@dataclass
class ReportRow:
    name: str
    expected: str = "unknown"
    n: int | None = None
    m: int | None = None
    wl: str = ""
    rsvp: str = ""
    oracle: str = ""
    wl_ms: float = 0.0
    rsvp_ms: float = 0.0
    oracle_ms: float = 0.0
    wl_ok: str = ""
    rsvp_ok: str = ""
    error: str = ""


def resolve_graph_ref(ref: str) -> Graph:
    """The graph of a ``gen:`` spec, of ``-`` (stdin) or of a graph file
    (format sniffed). Reader warnings go to stderr and a bad spec or file
    raises :class:`ParseError`, each led by ``ref``; an empty ``ref``, which
    names no graph, raises one too."""
    if not ref:
        raise ParseError("empty graph reference")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if ref.startswith("gen:"):
                graph = graph_from_spec(ref[len("gen:"):])
            else:
                graph = load_graph(ref)
        except ValueError as exc:  # ParseError and UnicodeDecodeError among them
            raise ParseError(f"{ref}: {exc}") from exc
    for warning in caught:
        print(f"warning: {ref}: {warning.message}", file=sys.stderr)
    return graph


def load_manifest(path: str | Path) -> list[ManifestRow]:
    # utf-8-sig drops the byte order mark that some spreadsheet exports write
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        for column in ("name", "graph_a", "graph_b", "expected"):
            if column not in fields:
                raise ValueError(f"manifest is missing column {column!r}")
        rows = []
        for record in reader:
            name = (record["name"] or "").strip()
            for column in ("name", "graph_a", "graph_b"):
                # a blank name is as good as none: the table would print an unnamed row
                if record[column] is None or (column == "name" and not name):
                    raise ValueError(f"manifest line {reader.line_num}, row {name!r}: "
                                     f"missing {column!r} cell")
            expected = (record["expected"] or "unknown").strip() or "unknown"
            if expected not in EXPECTED_LABELS:
                raise ValueError(
                    f"row {name!r}: expected label {expected!r} "
                    f"not in {EXPECTED_LABELS}"
                )
            rows.append(
                ManifestRow(
                    name=name,
                    graph_a=record["graph_a"].strip(),
                    graph_b=record["graph_b"].strip(),
                    expected=expected,
                )
            )
    names = [row.name for row in rows]
    if len(set(names)) != len(names):
        raise ValueError("manifest case names are not unique")
    return rows


def builtin_manifest() -> list[ManifestRow]:
    """The generatable verdict-table rows: the two classic refinement-failure
    pairs plus relabeled pairs from the always-detected families."""
    return [
        ManifestRow("disconnected-pair", "gen:cycle:6",
                    "gen:disjoint_union:complete:3:complete:3", "non-iso"),
        ManifestRow("strongly-regular-pair", "gen:shrikhande", "gen:rook:4",
                    "non-iso"),
        ManifestRow("paley-13-relabeled", "gen:paley:13",
                    "gen:permuted:42:paley:13", "iso"),
        ManifestRow("paley-17-relabeled", "gen:paley:17",
                    "gen:permuted:43:paley:17", "iso"),
        ManifestRow("complete-6-relabeled", "gen:complete:6",
                    "gen:permuted:44:complete:6", "iso"),
        ManifestRow("rook-4-relabeled", "gen:rook:4",
                    "gen:permuted:45:rook:4", "iso"),
    ]


def _agreement(expected: str, says_non_iso: bool) -> str:
    if expected == "non-iso":
        return "yes" if says_non_iso else "no"
    if expected == "iso":
        return "no" if says_non_iso else "yes"
    return ""


def run_row(row: ManifestRow) -> ReportRow:
    report = ReportRow(name=row.name, expected=row.expected)
    try:
        a = resolve_graph_ref(row.graph_a)
        b = resolve_graph_ref(row.graph_b)
    except Exception as exc:  # noqa: BLE001 - row isolation is the contract
        report.error = str(exc)
        return report
    report.n, report.m = a.n, a.m

    t0 = time.perf_counter()
    wl = wl_compare(a, b)
    report.wl_ms = (time.perf_counter() - t0) * 1000.0
    report.wl = ("non-isomorphic" if wl is WLVerdict.NON_ISOMORPHIC
                 else "possibly-isomorphic")
    report.wl_ok = _agreement(row.expected, wl is WLVerdict.NON_ISOMORPHIC)

    t0 = time.perf_counter()
    rsvp = rsvp_compare(a, b)
    report.rsvp_ms = (time.perf_counter() - t0) * 1000.0
    rsvp_non_iso = isinstance(rsvp, NonIsomorphic)
    report.rsvp = "non-isomorphic" if rsvp_non_iso else "certificates-equal"
    report.rsvp_ok = _agreement(row.expected, rsvp_non_iso)

    if max(a.n, b.n) <= ORACLE_SIZE_LIMIT:
        t0 = time.perf_counter()
        found = find_isomorphism(a, b)
        report.oracle_ms = (time.perf_counter() - t0) * 1000.0
        report.oracle = "isomorphic" if found is not None else "non-isomorphic"
    else:
        report.oracle = "skipped"
    return report


def run_bench(rows: list[ManifestRow], jobs: int = 1) -> list[ReportRow]:
    """One report row per manifest row, preserving manifest order; rows run
    in worker processes, at most one per core, whatever ``jobs`` (>= 1)
    asks for."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        # first use loads the process pool and multiprocessing (~1.5 MB), so
        # serial runs and run_row callers never pay for them
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_row, rows))
    return [run_row(row) for row in rows]


_COLUMNS = ("name", "expected", "n", "m", "wl", "wl_ms", "rsvp", "rsvp_ms",
            "oracle", "oracle_ms", "wl_ok", "rsvp_ok", "error")


def _cell(report: ReportRow, column: str) -> str:
    value = getattr(report, column)
    if value is None:
        return ""
    if column.endswith("_ms"):
        # blank when the method never ran: an errored row or a skipped oracle
        ran = getattr(report, column[:-3]) not in ("", "skipped")
        return f"{value:.1f}" if ran else ""
    return str(value)


def summary_line(reports: list[ReportRow]) -> str:
    rsvp_hits = sum(r.rsvp == "non-isomorphic" for r in reports)
    wl_hits = sum(r.wl == "non-isomorphic" for r in reports)
    errors = sum(bool(r.error) for r in reports)
    return (f"summary: {len(reports)} case(s); non-isomorphism flagged by "
            f"rsvp: {rsvp_hits}, by wl: {wl_hits}; errors: {errors}")


def format_table(reports: list[ReportRow]) -> str:
    grid = [_COLUMNS] + [
        tuple(_cell(report, column) for column in _COLUMNS) for report in reports
    ]
    widths = [max(len(row[i]) for row in grid) for i in range(len(_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in grid
    ]
    return "".join(line + "\n" for line in lines)


def format_csv(reports: list[ReportRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for report in reports:
        writer.writerow(_cell(report, column) for column in _COLUMNS)
    return buffer.getvalue()
