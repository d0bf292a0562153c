"""Command line interface.

Subcommands:
  family   emit one family graph (graph6 or edge-list)
  roper    read graphs, emit their R-graphs
  compute  read graphs, emit invariant records (JSON or CSV)
  verify   run proposition checks on input graphs or a family
  census   run proposition checks over the connected census

Options are spelled in full: a prefix of one is a usage error. Exit codes:
0 all pass, 1 at least one failed check, 2 usage or parse error, 3 a search
budget was exhausted.

Each command imports the modules it runs when it runs, so parsing the
arguments loads only ``core`` and ``codecs``, and ``family``, ``roper``
and ``compute`` never load the checks or the census.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from .codecs import FormatError, parse_edgelist, parse_graph6, write_edgelist, write_graph6
from .core import CANONICAL_MAX, DEFAULT_BUDGET, BudgetExceededError, CapacityError, Graph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdiff",
        description="Exact graph differential toolkit: solvers, the R operator, "
        "family generators, and a proposition verification harness.",
        allow_abbrev=False,
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
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, help="search budget, in units of work")

    p_family = sub.add_parser("family", help="emit a family graph", allow_abbrev=False)
    add_family(p_family, required=True)
    add_graphs(p_family, reads=False)

    p_roper = sub.add_parser("roper", help="emit the R-graph of each input graph", allow_abbrev=False)
    add_graphs(p_roper)

    p_compute = sub.add_parser("compute", help="emit an invariant record per input graph", allow_abbrev=False)
    add_graphs(p_compute)
    add_reports(p_compute)

    p_verify = sub.add_parser("verify", help="run proposition checks on given graphs", allow_abbrev=False)
    p_verify.add_argument("--props", default="all", help="comma-separated ids or 'all'")
    add_family(p_verify, help="verify a family graph instead of reading input")
    add_graphs(p_verify)
    add_reports(p_verify)

    p_census = sub.add_parser("census", help="run proposition checks over the census", allow_abbrev=False)
    p_census.add_argument("--nmax", type=int, default=5, help=f"largest order, up to {CANONICAL_MAX}")
    p_census.add_argument("--props", default="all")
    p_census.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
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
    with open(args.input) as f:
        return f.read()


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


def _open_output(args):
    """The ``--out`` file, opened before any search so a bad path fails at once; else stdout."""
    return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)


def _emit_graphs(args, graphs: list[Graph]) -> None:
    if args.format == "edgelist":
        text = "".join(write_edgelist(g) for g in graphs)
    else:
        text = "".join(write_graph6(g) + "\n" for g in graphs)
    with _open_output(args) as out:
        out.write(text)


def _writer(args, out, member: str):
    from .reports import CsvWriter, JsonWriter

    return JsonWriter(out, member) if args.report_format == "json" else CsvWriter(out)


def _family_spec(args):
    from .families import FamilySpec

    return FamilySpec(kind=args.kind, n=args.n, p=args.p, q=args.q, r=args.r)


def _parse_props(value: str) -> list[str]:
    from .propositions import PROPOSITIONS

    if value == "all":
        return list(PROPOSITIONS)
    ids = [token.strip().upper() for token in value.split(",") if token.strip()]
    if not ids:
        raise FormatError(f"no proposition ids in {value!r}")
    for pid in ids:
        if pid not in PROPOSITIONS:
            raise FormatError(f"unknown proposition id {pid!r}")
    return ids


def _report_exit(statuses: set[str]) -> int:
    if "fail" in statuses:
        return EXIT_FAIL
    if "skipped" in statuses:
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
    except (FormatError, CapacityError, ValueError, OSError) as exc:
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
        from .roperator import build_r

        graphs = _read_graphs(args)
        _emit_graphs(args, [build_r(g) for g in graphs])
        return EXIT_OK

    if args.command == "compute":
        from .reports import record_row
        from .solvers import full_record

        graphs = _read_graphs(args)
        skipped_budget = False
        with _open_output(args) as out:
            writer = _writer(args, out, "records")
            for g in graphs:
                record = full_record(g, budget=args.budget)
                skipped_budget |= any("budget" in reason for reason in record.skipped.values())
                writer.rows([record_row(write_graph6(g), record)])
            writer.close("compute", time.perf_counter() - start)
        return EXIT_BUDGET if skipped_budget else EXIT_OK

    if args.command in ("verify", "census"):
        prop_ids = _parse_props(args.props)
        summary = None
        if args.command == "census":
            from .census import census_runs
            from .propositions import CensusSummary

            runs = census_runs(args.nmax, prop_ids, jobs=args.jobs, budget=args.budget)
            summary = CensusSummary(n_min=3, n_max=args.nmax)
        else:
            from .propositions import run_all

            if args.kind and args.input != "-":
                raise ValueError("--kind and --input cannot be used together")
            graphs = [_family_spec(args).build()] if args.kind else _read_graphs(args)
            runs = (run_all(g, prop_ids, args.budget) for g in graphs)
        # census --csv writes its summary table alone
        keep_rows = summary is None or args.report_format == "json"
        statuses: set[str] = set()
        with _open_output(args) as out:
            writer = _writer(args, out, "reports")
            for reports in runs:
                statuses.update(r.status for r in reports)
                if summary is not None:
                    summary.add(reports)
                if keep_rows:
                    writer.reports(reports)
            writer.close(args.command, time.perf_counter() - start, summary)
        return _report_exit(statuses)

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
