import io
import json
import re

from gdiff.codecs import write_graph6
from gdiff.families import complete_bipartite, cycle, path, star, wheel
from gdiff.propositions import CensusSummary, CheckReport, run_all, run_census
from gdiff.reports import CsvWriter, JsonWriter, record_row, reports_to_csv, reports_to_json
from gdiff.solvers import full_record


def _sorted(value):
    """``value`` with every dict's keys in sorted order, as sort_keys writes them."""
    if isinstance(value, dict):
        return {k: _sorted(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_sorted(v) for v in value]
    return value


def _dumps(members: dict) -> str:
    """``json.dumps`` with sorted member dicts and the members in the given order."""
    return json.dumps({k: _sorted(v) for k, v in members.items()}, indent=2) + "\n"


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _stream(member, per_instance, summary=None):
    out = CountingStream()
    writer = JsonWriter(out, member)
    for rows in per_instance:
        writer.rows(rows)
    writer.close("test", 1.5, summary)
    return out


def test_json_writer_equals_json_dumps_with_the_header_last():
    # Witness sets, notes and statuses of several kinds, one instance at a time.
    per_instance = [
        [r.row() for r in run_all(g, ["P01", "P09", "P11", "P17", "P18"])]
        for g in (path(7), complete_bipartite(2, 3), star(4))
    ]
    summary = CensusSummary(n_min=3, n_max=7)
    summary.add(run_all(path(7), ["P18"]))
    out = _stream("reports", per_instance, summary)
    text = out.getvalue()
    doc = json.loads(text)
    assert list(doc) == ["reports", "summary", "header"]
    assert doc["header"]["runtime_seconds"] == 1.5
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", doc["header"]["created_at"])
    payload = {
        "reports": [row for rows in per_instance for row in rows],
        "summary": summary.to_dict(),
        "header": doc["header"],
    }
    assert text == _dumps(payload)
    # Apart from the header's place, the text is the one-shot sorted dump.
    body = text[: text.index(',\n  "header": ')] + "\n}\n"
    del payload["header"]
    assert body == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out.writes == len(per_instance) + 1


def test_json_writer_records_and_empty_members():
    graphs = (cycle(6), wheel(6))
    rows = [record_row(write_graph6(g), full_record(g)) for g in graphs]
    text = _stream("records", [[row] for row in rows]).getvalue()
    header = json.loads(text)["header"]
    assert text == _dumps({"records": rows, "header": header})
    empty = _stream("reports", [[]]).getvalue()
    header = json.loads(empty)["header"]
    assert empty == _dumps({"reports": [], "header": header})


def test_whole_document_forms_match_the_streamed_writers():
    reports = run_all(wheel(6)) + run_all(path(7))
    whole = json.loads(reports_to_json(reports, "verify"))
    streamed = json.loads(_stream("reports", [[r.row() for r in reports]]).getvalue())
    assert whole["reports"] == streamed["reports"]
    out = io.StringIO()
    writer = CsvWriter(out)
    writer.rows([r.row() for r in reports[:18]])
    writer.rows([r.row() for r in reports[18:]])
    writer.close()
    assert out.getvalue() == reports_to_csv(reports)
    assert out.getvalue().splitlines()[0] == "prop,instance_g6,status,witness_sets,note"


def test_report_rows_from_the_template_equal_json_dumps():
    # Report rows are written from a template, not by the json encoder; on
    # every report of the order 3-6 census and on synthetic rows with
    # escapes, non-ASCII notes, empty and multi-digit witness sets and P17's
    # labels, the text is still the one json.dumps writes.
    _, census_reports = run_census(6)
    synthetic = [
        CheckReport("P01", "C~", "fail", (), 'quote " backslash \\ newline \n tab \t bell \x07'),
        CheckReport("P02", "Bw", "pass", ((),), "τ(G) = ∂(R(G)) ≥ 0"),
        CheckReport("P03", "Bw", "vacuous", ((10, 123, 4567), (), (0,)), ""),
        CheckReport("P17", "E?~o", "fail", ((0, 3), (2, 0, 1, 0, 0, 1)), "diff + roman = 7 != n = 6"),
    ]
    for reports in (census_reports, synthetic):
        rows = [r.row() for r in reports]
        text = _stream("reports", [rows]).getvalue()
        header = json.loads(text)["header"]
        assert text == _dumps({"reports": rows, "header": header})
