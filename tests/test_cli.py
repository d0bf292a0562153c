import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from gdiff import census, propositions, solvers
from gdiff.cli import cli
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.families import KINDS, complete_bipartite, wheel
from gdiff.roperator import build_r

from oracles import sparse_connected_graphs


def run_cli(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_emits_graph6(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["family", "--kind", "wheel", "--n", "6"])
    assert code == 0
    assert parse_graph6(out.strip()) == wheel(6)


def test_family_roper_compute_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["family", "--kind", "wheel", "--n", "6"])
    assert code == 0
    code, out, _ = run_cli(capsys, monkeypatch, ["roper"], stdin=out)
    assert code == 0
    assert parse_graph6(out.strip()) == build_r(wheel(6))
    code, out, _ = run_cli(capsys, monkeypatch, ["compute", "--json"], stdin=out)
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["diff"] == 9


def test_compute_csv(capsys, monkeypatch):
    g6 = write_graph6(complete_bipartite(2, 3))
    code, out, _ = run_cli(capsys, monkeypatch, ["compute", "--csv"], stdin=g6 + "\n")
    assert code == 0
    header, row = out.strip().splitlines()
    # the columns follow InvariantRecord.to_dict; pinned so CSV bytes stay put
    assert header == (
        "instance_g6,n,m,delta_min,delta_max,diff,diff_r,gamma,tau,alpha,roman,psi,lambda,mu,skipped"
    )
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["tau"] == "2" and fields["diff_r"] == "7"


def test_compute_on_large_sparse_graphs_ends_within_budget(capsys, monkeypatch):
    # Every input up to CAPACITY answers or exits 3 within --budget, and an
    # R(G) of more than 64 vertices skips no field: R(G) is never built.
    graphs = sparse_connected_graphs(109, (24, 32, 40, 48, 56, 64))
    assert any(g.n + g.m > 64 for g in graphs)
    stdin = "".join(write_graph6(g) + "\n" for g in graphs)
    args = ["compute", "--json", "--budget", "20000"]
    code, out, _ = run_cli(capsys, monkeypatch, args, stdin=stdin)
    assert code in (0, 3)
    records = json.loads(out)["records"]
    assert len(records) == len(graphs)
    notes = [reason for r in records for reason in r["skipped"].values()]
    pattern = re.compile(
        r"(differential_exact|differential_of_r|domination_number|independence_number)"
        r" search exceeded its node budget of 20000 after (\d+) units"
    )
    matches = [pattern.fullmatch(note) for note in notes]
    assert all(match and int(match[2]) > 20000 for match in matches), notes


def test_compute_answers_sparse_graphs_of_order_32_at_the_default_budget(capsys, monkeypatch):
    # The differential searches branch and bound, so diff_r and mu answer
    # here instead of running out of the default budget, and the answers
    # obey lambda <= diff_r <= lambda + floor((n - mu) / 2).
    graphs = sparse_connected_graphs(109, (24, 32))
    stdin = "".join(write_graph6(g) + "\n" for g in graphs)
    code, out, _ = run_cli(capsys, monkeypatch, ["compute", "--json"], stdin=stdin)
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == len(graphs)
    fields = ("diff", "diff_r", "gamma", "tau", "alpha", "roman", "psi", "lambda", "mu")
    for r in records:
        assert r["skipped"] == {} and all(r[f] is not None for f in fields), r
        assert r["lambda"] <= r["diff_r"] <= r["lambda"] + (r["n"] - r["mu"]) // 2, r


def test_verify_answers_on_r_graphs_beyond_input_capacity(capsys, monkeypatch):
    # R orders 66, 78, 69 and 96: CAPACITY bounds input, not R(G).
    for spec in (
        ["--kind", "complete", "--n", "11"],
        ["--kind", "complete", "--n", "12"],
        ["--kind", "complete_bipartite", "--p", "6", "--q", "9"],
        ["--kind", "kprime", "--r", "6"],
    ):
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--props", "all", *spec])
        statuses = {r["status"] for r in json.loads(out)["reports"]}
        assert code == 0 and statuses <= {"pass", "vacuous"}, (spec, statuses)


def test_verify_on_large_sparse_graphs_skips_only_for_budget(capsys, monkeypatch):
    graphs = sparse_connected_graphs(109, (24, 32, 40, 48))
    assert sum(g.n + g.m > 64 for g in graphs) == 3
    stdin = "".join(write_graph6(g) + "\n" for g in graphs)
    args = ["verify", "--props", "all", "--budget", "20000"]
    code, out, _ = run_cli(capsys, monkeypatch, args, stdin=stdin)
    assert code in (0, 3)
    reports = json.loads(out)["reports"]
    assert [r["status"] for r in reports if r["prop"] == "P01"] == ["pass"] * len(graphs)
    assert all(r["note"].startswith("budget:") for r in reports if r["status"] == "skipped")


def test_family_refuses_orders_beyond_capacity(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["family", "--kind", "complete", "--n", "100000"])
    assert code == 2 and out == "" and "capacity" in err


def test_unread_flags_removed(capsys, monkeypatch):
    g6 = write_graph6(complete_bipartite(2, 3)) + "\n"
    for args in (
        ["family", "--kind", "wheel", "--n", "5", "--input", "-"],
        ["family", "--kind", "wheel", "--n", "5", "--json"],
        ["family", "--kind", "wheel", "--n", "5", "--budget", "9"],
        ["roper", "--csv"],
        ["roper", "--budget", "9"],
        ["census", "--nmax", "3", "--format", "edgelist"],
    ):
        assert run_cli(capsys, monkeypatch, args, stdin=g6)[0] == 2, args


def test_option_prefixes_are_usage_errors(capsys, monkeypatch):
    # Options are spelled in full: --n would otherwise run census --nmax 7,
    # while on verify and family it is the family order.
    g6 = write_graph6(complete_bipartite(2, 3)) + "\n"
    for args in (
        ["census", "--n", "7"],
        ["census", "--nmax", "3", "--p", "P01"],
        ["verify", "--prop", "P01", "--kind", "wheel", "--n", "6"],
        ["compute", "--js"],
    ):
        code, out, _ = run_cli(capsys, monkeypatch, args, stdin=g6)
        assert (code, out) == (2, ""), args


def test_seed_flag_removed(capsys, monkeypatch):
    g6 = write_graph6(complete_bipartite(2, 3)) + "\n"
    assert run_cli(capsys, monkeypatch, ["compute"], stdin=g6)[0] == 0
    assert run_cli(capsys, monkeypatch, ["compute", "--seed", "1"], stdin=g6)[0] == 2


def test_compute_rejects_malformed_file(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.g6"
    bad.write_text("this is not graph6\n")
    code, _, err = run_cli(capsys, monkeypatch, ["compute", "--input", str(bad)])
    assert code == 2
    assert "error" in err


def test_compute_missing_file(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["compute", "--input", "/nonexistent.g6"])
    assert code == 2
    assert err.startswith("gdiff: error: ")


def test_unreadable_and_unwritable_paths_are_usage_errors(tmp_path, capsys, monkeypatch):
    # A path the CLI cannot read or write is a usage error (exit 2), not a
    # failed check (exit 1) ending in a traceback.
    code, _, err = run_cli(capsys, monkeypatch, ["compute", "--input", str(tmp_path)])
    assert code == 2 and err.startswith("gdiff: error: ")
    missing = tmp_path / "missing" / "x"
    family = ["family", "--kind", "wheel", "--n", "5", "--out", str(missing)]
    code, out, err = run_cli(capsys, monkeypatch, family)
    assert (code, out) == (2, "") and err.startswith("gdiff: error: ")
    assert not missing.parent.exists()

    # --out is opened before the census is generated or any graph searched.
    def refuse(*args, **kwargs):
        raise AssertionError("work done before --out was opened")

    monkeypatch.setattr(census, "connected_census", refuse)
    for module in (census, propositions):
        monkeypatch.setattr(module, "run_all", refuse)
    monkeypatch.setattr(solvers, "full_record", refuse)
    g6 = write_graph6(wheel(5)) + "\n"
    for argv in (
        ["census", "--nmax", "4"],
        ["verify", "--kind", "wheel", "--n", "5"],
        ["verify"],
        ["compute"],
        ["compute", "--csv"],
    ):
        code, out, err = run_cli(capsys, monkeypatch, [*argv, "--out", str(missing)], stdin=g6)
        assert (code, out) == (2, "") and err.startswith("gdiff: error: "), argv
    assert not missing.parent.exists()


def test_kind_with_input_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # --kind names the graph verify checks, so an --input beside it would go
    # unread: it is refused, whether or not the file exists.
    given = tmp_path / "wheel.g6"
    given.write_text(write_graph6(wheel(5)) + "\n")
    for path in (given, tmp_path / "missing.g6"):
        args = ["verify", "--kind", "cycle", "--n", "5", "--input", str(path)]
        code, out, err = run_cli(capsys, monkeypatch, args)
        assert (code, out) == (2, ""), path
        assert err.startswith("gdiff: error: ") and "--kind" in err and "--input" in err


def test_usage_error(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch, ["family", "--kind"])
    assert code == 2
    code, _, _ = run_cli(capsys, monkeypatch, ["no-such-command"])
    assert code == 2


def test_edgelist_roundtrip_via_cli(capsys, monkeypatch):
    listing = "n 4\n0 1\n1 2\n2 3\n"
    code, out, _ = run_cli(
        capsys, monkeypatch, ["roper", "--format", "edgelist"], stdin=listing
    )
    assert code == 0
    assert out.startswith("n 7\n")


def test_verify_family_pass(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--kind", "complete_bipartite", "--p", "2", "--q", "3", "--props", "P11,P15,P16"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["status"] for r in payload["reports"]] == ["pass", "pass", "vacuous"]


def test_verify_csv_rows(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--kind", "complete", "--n", "4", "--props", "P01,P11", "--csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prop,instance_g6,status,witness_sets,note"
    assert len(lines) == 3


def test_verify_exit_one_on_failed_check(capsys, monkeypatch):
    # the figure audit refutes its claim on P_7, which must surface as exit 1
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--kind", "path", "--n", "7", "--props", "P18"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["reports"][0]["status"] == "fail"


def test_verify_exit_three_on_budget(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--kind", "complete", "--n", "5", "--props", "P03", "--budget", "3"],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["reports"][0]["status"] == "skipped"


def test_verify_unknown_prop(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["verify", "--props", "P99"], stdin="Bw\n")
    assert code == 2


def test_props_without_ids_is_a_usage_error(capsys, monkeypatch):
    # an empty id list names no check; it must not run all of them
    for args in (
        ["verify", "--props", ",", "--kind", "wheel", "--n", "5"],
        ["census", "--props", " ", "--nmax", "3"],
    ):
        code, out, err = run_cli(capsys, monkeypatch, args)
        assert (code, out) == (2, ""), args
        assert "no proposition ids" in err


def test_budget_and_jobs_below_one_are_usage_errors(capsys, monkeypatch):
    g6 = write_graph6(complete_bipartite(2, 3)) + "\n"
    for args in (
        ["verify", "--props", "P01", "--kind", "wheel", "--n", "5", "--budget", "-3"],
        ["compute", "--budget", "0"],
        ["census", "--nmax", "3", "--jobs", "-2"],
        ["census", "--nmax", "3", "--jobs", "0"],
        ["census", "--nmax", "3", "--jobs", "two"],
    ):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin=g6)
        assert (code, out) == (2, ""), args
        assert "expected an integer of at least 1" in err
    args = ["census", "--nmax", "3", "--props", "P01", "--jobs", "1", "--budget", "1000"]
    assert run_cli(capsys, monkeypatch, args)[0] == 0


def test_census_csv_summary(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["census", "--nmax", "5", "--props", "all", "--csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prop,pass,fail,vacuous,skipped,total"
    assert len(lines) == 1 + 18
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "0"  # fail column
        assert int(fields[5]) == 29  # instances per proposition (2 + 6 + 21)


def test_census_json_report_completeness(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["census", "--nmax", "4", "--props", "P01,P17", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 8 * 2
    assert payload["summary"]["instances"] == 8


def test_census_determinism_modulo_header(capsys, monkeypatch):
    args = ["census", "--nmax", "4", "--props", "P01,P11"]
    _, first, _ = run_cli(capsys, monkeypatch, args)
    _, second, _ = run_cli(capsys, monkeypatch, args)
    a, b = json.loads(first), json.loads(second)
    a.pop("header")
    b.pop("header")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_out_flag_writes_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["census", "--nmax", "3", "--props", "P01", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["summary"]["instances"] == 2


def test_census_streams_one_write_per_instance(monkeypatch):
    # The first instance's reports are written before the second is checked,
    # and the 8 instances of orders 3-4 take one write each, plus the tail.
    checked = []
    run_all = census.run_all

    def counting(*args, **kwargs):
        checked.append(1)
        return run_all(*args, **kwargs)

    class Stream(io.StringIO):
        def __init__(self):
            super().__init__()
            self.checked_at_writes = []

        def write(self, text):
            self.checked_at_writes.append(len(checked))
            return super().write(text)

    stream = Stream()
    monkeypatch.setattr(census, "run_all", counting)
    monkeypatch.setattr("sys.stdout", stream)
    assert cli(["census", "--nmax", "4", "--props", "P01,P11"]) == 0
    assert stream.checked_at_writes == [1, 2, 3, 4, 5, 6, 7, 8, 8]
    assert json.loads(stream.getvalue())["summary"]["instances"] == 8


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Input files for the CLI fuzz: graph6, junk, empty and edge-list."""
    tmp = tmp_path_factory.mktemp("fuzz")
    graphs = (wheel(5), complete_bipartite(2, 3))
    (tmp / "good.g6").write_text("".join(write_graph6(g) + "\n" for g in graphs))
    (tmp / "junk.txt").write_text("not a graph\n~~\x01\n")
    (tmp / "empty.txt").write_text("")
    (tmp / "edges.txt").write_text("n 4\n0 1\n1 2\n2 3\n")
    return tmp


# The options each subcommand takes, but census --jobs, which the fuzz
# always sets to 1.
FAMILY = ("--kind", "--n", "--p", "--q", "--r")
REPORTS = ("--json", "--csv", "--budget", "--out")
TAKES = {
    "family": FAMILY + ("--format", "--out"),
    "roper": ("--input", "--format", "--out"),
    "compute": ("--input", "--format") + REPORTS,
    "verify": ("--props", "--input", "--format") + FAMILY + REPORTS,
    "census": ("--nmax", "--props", "--input") + REPORTS,
    "nope": (),
}


def _fuzz_values(tmp):
    """A strategy for the value of each option; None for a flag or a junk token."""
    orders = st.integers(-3, 65).map(str)
    inputs = [str(tmp / name) for name in ("good.g6", "junk.txt", "empty.txt", "edges.txt", "none.g6")]
    values = {
        "--kind": st.sampled_from(KINDS + ("grid",)),
        "--budget": st.sampled_from(["1", "40", "ten"]) | st.integers(-1, 10**4).map(str),
        "--props": st.sampled_from(["all", "P01", "p04,P17", "P99", ",", "P03,P03"]),
        "--input": st.sampled_from(inputs + ["-"]),
        "--format": st.sampled_from(["graph6", "edgelist", "dot"]),
        "--out": st.sampled_from([str(tmp / "out.txt"), str(tmp)]),
        "--nmax": st.sampled_from(["-1", "0", "2", "3", "4", "5", "9"]),
    }
    values.update({name: orders for name in FAMILY[1:]})
    values.update({token: None for token in ("--json", "--csv", "--help", "-x", "junk", "")})
    return values


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_dir, data):
    # Random subcommands, options and junk, in-process. Half the runs draw
    # only the subcommand's own options, so they get past the parser. census
    # always gets --jobs 1, so no worker process starts, and every search
    # gets a budget of at most 10^4 last, so no run takes long.
    values = _fuzz_values(fuzz_dir)
    command = data.draw(st.sampled_from(list(TAKES)))
    own = data.draw(st.booleans()) and TAKES[command]
    names = st.sampled_from(own or list(values))
    argv = [command]
    for name in data.draw(st.lists(names, max_size=5)):
        argv.append(name)
        if values[name] is not None:
            argv.append(data.draw(values[name]))
    if command == "census":
        argv += ["--jobs", "1"]
    if "--budget" in TAKES[command]:
        argv += ["--budget", data.draw(st.integers(1, 10**4).map(str))]
    stdin = write_graph6(wheel(5)) + "\n"
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", io.StringIO(stdin))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
