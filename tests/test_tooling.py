"""Contracts with the tooling around gdiff.

The benchmark's tracer looks gdiff's public names up by name; keep them.
Every command-line option must be read by the subcommand that takes it.
"""

import argparse
import importlib
import importlib.util
import io
from pathlib import Path

import gdiff.cli as cli_module
from gdiff.codecs import write_graph6
from gdiff.families import wheel

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"gdiff.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"gdiff.{module_name}.{fn_name}"


# census --input is never read by gdiff: the benchmark's set-up probe
# (bench/run.py) parses every workload's arguments and reads args.input.
UNREAD_ALLOWED = {("census", "input")}


def test_every_option_is_read_by_its_subcommand(capsys, monkeypatch):
    # Attribute reads on the parsed namespace are recorded from the end of
    # parsing on; a subcommand with two paths (verify) runs both.
    build_parser = cli_module.build_parser
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                reads.add(name)
            return super().__getattribute__(name)

    def recording_parser():
        parser = build_parser()
        parse = parser.parse_args

        def parse_args(argv):
            args = parse(argv, namespace=Recording())
            reads.clear()
            return args

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli_module, "build_parser", recording_parser)
    g6 = write_graph6(wheel(5)) + "\n"
    runs = {
        "family": [["--kind", "wheel", "--n", "5"]],
        "roper": [[]],
        "compute": [[]],
        "verify": [["--kind", "wheel", "--n", "5"], []],
        "census": [["--nmax", "3"]],
    }
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(runs)
    unread = set()
    for command, sub in subparsers.choices.items():
        seen = set()
        for argv in runs[command]:
            monkeypatch.setattr("sys.stdin", io.StringIO(g6))
            assert cli_module.cli([command, *argv]) in (0, 1)
            seen |= reads
        capsys.readouterr()
        options = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        unread |= {(command, dest) for dest in options - seen}
    assert unread == UNREAD_ALLOWED
