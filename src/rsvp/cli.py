"""Command-line interface.

Commands::

    rsvp certify <graph> [--digest]
    rsvp compare <a> <b> [--method rsvp|wl|oracle] [--force]
    rsvp gen <family> [params...] [-o OUT] [--format dimacs|edgelist]
    rsvp bench <manifest.csv|tables-builtin> [--csv] [--jobs N]

Exit codes: 0 success (for compare: certificates equal / possibly or exactly
isomorphic), 1 non-isomorphic, 2 error. A graph is given as in a manifest: a
file path (format sniffed), ``-`` for stdin, or a ``gen:`` generator spec such
as ``gen:rook:4``; a file whose name starts with ``gen:`` is given as
``./gen:...``; ``gen`` reads ``gen:<family>:<params>`` through the same
loader. Reader warnings and errors name the graph they came from.
Equal certificates prove nothing by themselves, so ``compare`` always says
whether a mapping verified. It prints ``verified`` whenever its exact search,
budgeted at n * n candidate checks, proves the pair isomorphic, first from
the refinement classes and, for equal certificates, again from the signature
classes. ``unverified`` means neither run proved a mapping: the budget ran
out, as on relabeled ``paley:29``, ``paley:101`` or ``shrikhande``, or the
certificates tie on a non-isomorphic pair. ``unverified`` is not a verdict;
``--method oracle`` decides both ways.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from .bench import (builtin_manifest, format_csv, format_table, load_manifest,
                    resolve_graph_ref, run_bench, summary_line)
from .formats import ParseError, to_dimacs, to_edge_list
from .oracle import ORACLE_SIZE_LIMIT, find_isomorphism
from .refinement import WLVerdict, wl_compare
from .signature import CertificatesEqual, certificate, rsvp_compare


def cmd_certify(args: argparse.Namespace) -> int:
    graph = resolve_graph_ref(args.input)
    # line by line, so the whole serialized text and its encoded copy are
    # never held next to the certificate; the bytes are serialize()'s
    digest = hashlib.sha256()
    for line in certificate(graph).lines:
        text = line + "\n"
        sys.stdout.write(text)
        if args.digest:
            digest.update(text.encode("utf-8"))
    if args.digest:
        print(f"sha256:{digest.hexdigest()}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a = resolve_graph_ref(args.a)
    b = resolve_graph_ref(args.b)

    if args.method == "rsvp":
        verdict = rsvp_compare(a, b)
        if not isinstance(verdict, CertificatesEqual):
            print(f"non-isomorphic ({verdict.reason})")
            return 1
        verified = verdict.mapping is not None
        print(f"certificates equal; candidate mapping {'verified' if verified else 'unverified'}")
        return 0

    if args.method == "wl":
        if wl_compare(a, b) is WLVerdict.NON_ISOMORPHIC:
            print("non-isomorphic")
            return 1
        print("possibly isomorphic (WL inconclusive)")
        return 0

    size = max(a.n, b.n)
    if size > ORACLE_SIZE_LIMIT and not args.force:
        print(
            f"error: oracle search refused for n={size} "
            f"(limit {ORACLE_SIZE_LIMIT}); pass --force to override",
            file=sys.stderr,
        )
        return 2
    # find_isomorphism verifies its mapping or raises
    if find_isomorphism(a, b) is None:
        print("non-isomorphic")
        return 1
    print("isomorphic")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    graph = resolve_graph_ref(":".join(["gen", args.family, *args.params]))
    text = to_edge_list(graph) if args.format == "edgelist" else to_dimacs(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.manifest == "tables-builtin":
        rows = builtin_manifest()
    else:
        rows = load_manifest(args.manifest)
    reports = run_bench(rows, jobs=args.jobs)
    if args.csv:
        sys.stdout.write(format_csv(reports))
        print(summary_line(reports), file=sys.stderr)
    else:
        sys.stdout.write(format_table(reports))
        print(summary_line(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsvp",
        description="Graph isomorphism testing via prime-encoded reachability "
                    "signatures, with a color-refinement baseline and an exact "
                    "small-graph oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="print a graph's certificate")
    certify.add_argument("input", help="graph file, - for stdin, or gen:<spec>")
    certify.add_argument("--digest", action="store_true",
                         help="also print a sha256 of the certificate to stderr")
    certify.set_defaults(func=cmd_certify)

    compare = sub.add_parser("compare", help="compare two graphs")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--method", choices=("rsvp", "wl", "oracle"),
                         default="rsvp")
    compare.add_argument("--force", action="store_true",
                         help="run the oracle past its size limit")
    compare.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen", help="write a generated graph")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.add_argument("-o", "--output", default=None)
    gen.add_argument("--format", choices=("dimacs", "edgelist"), default="dimacs")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run a benchmark manifest")
    bench.add_argument("manifest", help="manifest CSV path, or tables-builtin")
    bench.add_argument("--csv", action="store_true",
                       help="emit CSV instead of the plain table")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes running rows (>= 1, capped at the core count)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
