"""Contracts with the tooling around gdiff.

The benchmark (its tracer, its runner and its reference maker) looks gdiff's
names up by name; keep them.
Every command-line option must be read by the subcommand that takes it,
and README's option table must list exactly the options each one takes.
Importing the CLI leaves the process pool and pathlib out, each command loads only the
gdiff modules it runs, and `python -m gdiff.cli` runs the CLI.
"""

import argparse
import ast
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gdiff
import gdiff.cli as cli_module
from gdiff.codecs import write_graph6
from gdiff.families import wheel

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

# What bench/run.py reads of gdiff, in its launch line, its set-up probe and
# its traced runs.
RUN_READS = (
    "census.connected_census.cache_clear",
    "cli.build_parser",
    "cli.main",
    "codecs.parse_graph6",
    "core.BudgetExceededError",
)


def _traced():
    """bench/tracer.py's TRACED: the (module, function) pairs it wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    return tracer.TRACED


def test_traced_names_exist():
    for module_name, fn_name in _traced():
        module = importlib.import_module(f"gdiff.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"gdiff.{module_name}.{fn_name}"


def test_bench_names_exist():
    tree = ast.parse((ROOT / "bench" / "make_reference.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gdiff"
        for alias in node.names
    ]
    assert imported
    gdiff = importlib.import_module("gdiff")
    for name in imported:
        assert hasattr(gdiff, name), f"gdiff.{name}"
    run_text = (ROOT / "bench" / "run.py").read_text()
    for dotted in RUN_READS:
        module, *attrs = dotted.split(".")
        assert attrs[-1] in run_text, dotted
        obj = importlib.import_module(f"gdiff.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"gdiff.{dotted}"
            obj = getattr(obj, attr)


def _subparsers():
    (action,) = [
        a for a in cli_module.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


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
    subparsers = _subparsers()
    assert set(subparsers) == set(runs)
    unread = set()
    for command, sub in subparsers.items():
        seen = set()
        for argv in runs[command]:
            monkeypatch.setattr("sys.stdin", io.StringIO(g6))
            assert cli_module.cli([command, *argv]) in (0, 1)
            seen |= reads
        capsys.readouterr()
        options = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        unread |= {(command, dest) for dest in options - seen}
    assert unread == UNREAD_ALLOWED


def test_readme_option_table_matches_the_parser():
    # Rows look like "| `compute`  | `--input`, `--format`, `--json` / `--csv`, ... |".
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        row = re.fullmatch(r"\| `(\w+)` *\| (.*) \|", line.strip())
        if row:
            table[row[1]] = re.findall(r"`(--[\w-]+)`", row[2])
    registered = {
        command: [
            option
            for action in sub._actions
            if action.help != argparse.SUPPRESS
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        ]
        for command, sub in _subparsers().items()
    }
    assert table == registered


def test_cli_import_leaves_out_modules_most_runs_do_not_need():
    # Only census --jobs > 1 needs a process pool, and only CSV output needs
    # csv; every other run would pay for importing them at start-up. No run
    # needs dataclasses, which imports inspect, or datetime.
    unneeded = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "datetime", "csv")
    probe = f"import sys, gdiff.cli; print(sorted(m for m in {unneeded!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_pathlib():
    # --input is read with open, so start-up does not import pathlib and,
    # through it, urllib.parse, ipaddress and fnmatch. Without site (-S),
    # whose .pth files may import pathlib themselves.
    unneeded = ("pathlib", "urllib.parse", "ipaddress", "fnmatch")
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import gdiff.cli; "
        f"print(sorted(m for m in {unneeded!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_entry_point_runs_the_cli():
    # `python -m gdiff.cli` is the CLI, exit code included.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(props):
        argv = [sys.executable, "-m", "gdiff.cli", "census", "--nmax", "3", "--props", props, "--csv"]
        return subprocess.run(argv, capture_output=True, text=True, env=env)

    done = run("P01")
    assert (done.returncode, done.stdout) == (0, "prop,pass,fail,vacuous,skipped,total\nP01,2,0,0,0,2\n")
    assert run("P99").returncode == 2


def _modules_after(code: str) -> set[str]:
    """The gdiff modules a fresh interpreter holds after running ``code``."""
    probe = (
        f"{code}\nimport sys\n"
        "print(sorted(m[6:] for m in sys.modules if m.startswith('gdiff.')), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(ast.literal_eval(done.stderr.splitlines()[-1]))


def _cli_run(argv: list[str]) -> str:
    """Code that runs the CLI on ``argv`` and fails unless it exits 0."""
    return f"import gdiff.cli; assert gdiff.cli.cli({argv!r}) == 0"


def test_imports_load_no_command_modules():
    # The package namespace is lazy, and parsing the arguments needs only
    # the graph type and the codecs.
    assert _modules_after("import gdiff") == set()
    assert _modules_after("import gdiff.cli") == {"cli", "codecs", "core"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    given = tmp_path / "wheel.g6"
    given.write_text(write_graph6(wheel(5)) + "\n")
    left_out = {
        ("family", "--kind", "wheel", "--n", "5"): {"solvers", "propositions", "census", "reports"},
        ("roper", "--input", str(given)): {"solvers", "propositions", "census", "families", "reports"},
        ("compute", "--input", str(given)): {"propositions", "census", "families"},
        ("verify", "--props", "all", "--input", str(given)): {"census"},
    }
    for argv, modules in left_out.items():
        loaded = _modules_after(_cli_run(list(argv)))
        assert not loaded & modules, argv


def test_traced_runs_load_every_traced_module(tmp_path):
    # bench/run.py imports gdiff.census and gdiff.cli, runs a workload's
    # command once untraced, and only then wraps the functions in TRACED,
    # reading each of their modules from sys.modules.
    given = tmp_path / "wheel.g6"
    given.write_text(write_graph6(wheel(5)) + "\n")
    traced = {module for module, _ in _traced()}
    for argv in (
        ["census", "--nmax", "3", "--props", "P01"],
        ["verify", "--props", "P01", "--input", str(given)],
        ["compute", "--json", "--input", str(given)],
    ):
        loaded = _modules_after("import gdiff.census\n" + _cli_run(argv))
        assert traced <= loaded, (argv, traced - loaded)


def test_package_namespace_is_lazy():
    # Each public name is read from the module that defines it, on first use.
    for name in gdiff.__all__:
        value = getattr(gdiff, name)
        module = importlib.import_module(f"gdiff.{gdiff._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(gdiff.__all__) <= set(dir(gdiff))
    with pytest.raises(AttributeError):
        gdiff.no_such_name
    namespace = {}
    exec("from gdiff import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gdiff.__all__)
