"""Command line interface.

Subcommands:
  family   emit one family graph (graph6 or edge-list)
  roper    read graphs, emit their R-graphs
  compute  read graphs, emit invariant records (JSON or CSV)
  verify   run proposition checks on input graphs or a family
  census   run proposition checks over the connected census

Exit codes: 0 all pass, 1 at least one failed check, 2 usage or parse
error, 3 a search budget was exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .census import CANONICAL_MAX
from .codecs import FormatError, parse_edgelist, parse_graph6, write_edgelist, write_graph6
from .core import BudgetExceededError, CapacityError, Graph
from .families import FamilySpec
from .propositions import PROPOSITIONS, run_all, run_census
from .reports import (
    records_to_csv,
    records_to_json,
    reports_to_csv,
    reports_to_json,
    summary_to_csv,
)
from .roperator import build_r
from .solvers import DEFAULT_BUDGET, full_record

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdiff",
        description="Exact graph differential toolkit: solvers, the R operator, "
        "family generators, and a proposition verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, **kind):
        p.add_argument("--kind", **kind)
        for name in ("n", "p", "q", "r"):
            p.add_argument(f"--{name}", type=int)

    def add_graphs(p, reads=True):
        if reads:
            p.add_argument("--input", default="-", help="input path, or - for stdin")
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6", help="graph format")

    def add_reports(p):
        fmt = p.add_mutually_exclusive_group()
        for name in ("json", "csv"):
            fmt.add_argument(f"--{name}", dest="report_format", action="store_const", const=name)
        p.set_defaults(report_format="json")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")

    p_family = sub.add_parser("family", help="emit a family graph")
    add_family(p_family, required=True)
    add_graphs(p_family, reads=False)

    p_roper = sub.add_parser("roper", help="emit the R-graph of each input graph")
    add_graphs(p_roper)

    p_compute = sub.add_parser("compute", help="emit an invariant record per input graph")
    add_graphs(p_compute)
    add_reports(p_compute)

    p_verify = sub.add_parser("verify", help="run proposition checks on given graphs")
    p_verify.add_argument("--props", default="all", help="comma-separated ids or 'all'")
    add_family(p_verify, help="verify a family graph instead of reading input")
    add_graphs(p_verify)
    add_reports(p_verify)

    p_census = sub.add_parser("census", help="run proposition checks over the census")
    p_census.add_argument("--nmax", type=int, default=5, help=f"largest order, up to {CANONICAL_MAX}")
    p_census.add_argument("--props", default="all")
    p_census.add_argument("--jobs", type=int, default=1, help="worker processes")
    # The census reads no graphs. --input is accepted and ignored because the
    # benchmark's set-up probe (bench/run.py) reads args.input on every command.
    p_census.add_argument("--input", default="-", help=argparse.SUPPRESS)
    add_reports(p_census)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    return parser


def _read_text(args) -> str:
    if args.input == "-":
        return sys.stdin.read()
    path = Path(args.input)
    if not path.exists():
        raise FormatError(f"input file not found: {path}")
    return path.read_text()


def _read_graphs(args) -> list[Graph]:
    text = _read_text(args)
    if args.format == "edgelist":
        return [parse_edgelist(text)]
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(parse_graph6(line))
    if not graphs:
        raise FormatError("no graphs in input")
    return graphs


def _write_output(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_graphs(args, graphs: list[Graph]) -> None:
    if args.format == "edgelist":
        _write_output(args, "".join(write_edgelist(g) for g in graphs))
    else:
        _write_output(args, "".join(write_graph6(g) + "\n" for g in graphs))


def _family_spec(args) -> FamilySpec:
    return FamilySpec(kind=args.kind, n=args.n, p=args.p, q=args.q, r=args.r)


def _parse_props(value: str) -> list[str]:
    if value == "all":
        return list(PROPOSITIONS)
    ids = [token.strip().upper() for token in value.split(",") if token.strip()]
    for pid in ids:
        if pid not in PROPOSITIONS:
            raise FormatError(f"unknown proposition id {pid!r}")
    return ids


def _report_exit(reports) -> int:
    if any(r.status == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.status == "skipped" for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return _dispatch(args)
    except (FormatError, CapacityError, ValueError) as exc:
        print(f"gdiff: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"gdiff: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def _dispatch(args) -> int:
    start = time.perf_counter()

    if args.command == "family":
        _emit_graphs(args, [_family_spec(args).build()])
        return EXIT_OK

    if args.command == "roper":
        graphs = _read_graphs(args)
        _emit_graphs(args, [build_r(g).total for g in graphs])
        return EXIT_OK

    if args.command == "compute":
        graphs = _read_graphs(args)
        records = [(write_graph6(g), full_record(g, budget=args.budget)) for g in graphs]
        runtime = time.perf_counter() - start
        if args.report_format == "csv":
            _write_output(args, records_to_csv(records))
        else:
            _write_output(args, records_to_json(records, "compute", runtime))
        skipped_budget = any(
            "budget" in reason
            for _, record in records
            for reason in record.skipped.values()
        )
        return EXIT_BUDGET if skipped_budget else EXIT_OK

    if args.command == "verify":
        prop_ids = _parse_props(args.props)
        if args.kind:
            graphs = [_family_spec(args).build()]
        else:
            graphs = _read_graphs(args)
        reports = []
        for g in graphs:
            reports.extend(run_all(g, prop_ids, args.budget))
        runtime = time.perf_counter() - start
        if args.report_format == "csv":
            _write_output(args, reports_to_csv(reports))
        else:
            _write_output(args, reports_to_json(reports, "verify", runtime=runtime))
        return _report_exit(reports)

    if args.command == "census":
        prop_ids = _parse_props(args.props)
        summary, reports = run_census(args.nmax, prop_ids, jobs=args.jobs, budget=args.budget)
        if args.report_format == "csv":
            _write_output(args, summary_to_csv(summary))
        else:
            _write_output(
                args,
                reports_to_json(reports, "census", summary, summary.total_runtime),
            )
        return _report_exit(reports)

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    raise SystemExit(cli())
