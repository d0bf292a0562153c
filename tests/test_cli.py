import io
import json

from gdiff.cli import cli
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.families import complete_bipartite, wheel
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
    assert parse_graph6(out.strip()) == build_r(wheel(6)).total
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
    reasons = [reason for r in records for reason in r["skipped"].values()]
    assert all(reason.startswith("search exceeded its node budget") for reason in reasons)


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
