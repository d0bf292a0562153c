"""JSON and CSV writers for reports, summaries, and invariant records.

Output is streamed. A command hands its writer the rows of one instance
at a time, and the writer emits them with one ``write``, so no run holds
all its rows or the whole document text. A JSON document's members come
in the order ``reports`` (or ``records``), ``summary`` (census only),
``header``. The header holds every volatile field (timestamp, runtime)
and comes last, because the runtime is known only at the end. Each other
member is written byte for byte as ``json.dumps(document, indent=2,
sort_keys=True)`` writes it and is a pure function of the inputs and
flags, so two runs with equal flags produce byte-identical bodies.

A report row always has the same five keys, so the rows of ``reports`` are
written from one template rather than by the json encoder: the sorted keys
are literals, strings go through ``encode_basestring_ascii`` (the function
json itself uses for ``ensure_ascii``) and witness members through
``str``. ``JsonWriter.reports`` fills the template from each
``CheckReport``'s fields, with no row dict between. The tests pin the
template's bytes to ``json.dumps``. Records, the summary and the header go
through the encoder.
"""

from __future__ import annotations

import io
import json
import time
from json.encoder import encode_basestring_ascii as _string
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:  # names for annotations only: compute never loads the checks
    from .propositions import CensusSummary, CheckReport
    from .solvers import InvariantRecord

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _header(command: str, runtime: float | None) -> dict:
    return {
        "tool": "gdiff",
        "command": command,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "runtime_seconds": round(runtime, 3) if runtime is not None else None,
    }


def _member(value) -> str:
    """The JSON text of ``value`` as a member of the top-level object."""
    return _ENCODER.encode(value).replace("\n", "\n  ")


def _witness_sets(sets: tuple[tuple[int, ...], ...]) -> str:
    """``witness_sets`` as ``_member`` writes it in a report row."""
    if not sets:
        return "[]"
    items = [
        "[\n          " + ",\n          ".join(map(str, s)) + "\n        ]" if s else "[]"
        for s in sets
    ]
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _report_item(prop: str, instance: str, status: str, witness_sets, note: str) -> str:
    """A report row as ``_member`` writes it in the ``reports`` array, from its one template."""
    return (
        f'    {{\n      "instance_g6": {_string(instance)},\n'
        f'      "note": {_string(note)},\n'
        f'      "prop": {_string(prop)},\n'
        f'      "status": {_string(status)},\n'
        f'      "witness_sets": {_witness_sets(witness_sets)}\n    }}'
    )


def record_row(g6: str, record: InvariantRecord) -> dict:
    return {"instance_g6": g6, **record.to_dict()}


class JsonWriter:
    """One JSON object: the ``member`` array of rows, then summary and header."""

    def __init__(self, out: TextIO, member: str):
        self.out = out
        self.head = f"{{\n  {json.dumps(member)}: ["
        self.started = False

    def rows(self, rows: list[dict]) -> None:
        """Append rows to the array with one write, through the encoder."""
        if rows:
            # "[\n    {...},\n    {...}\n  ]" as a member: keep the items.
            self._write(_member(rows)[2:-4])

    def reports(self, reports: list[CheckReport]) -> None:
        """Append check reports to the ``reports`` array with one write, each
        written into the row template from its fields, with no row dict."""
        if reports:
            self._write(",\n".join([
                _report_item(prop, instance, status, witness_sets, note)
                for prop, instance, status, witness_sets, note, _ in reports
            ]))

    def _write(self, items: str) -> None:
        self.out.write((",\n" if self.started else self.head + "\n") + items)
        self.started = True

    def close(
        self, command: str = "", runtime: float | None = None, summary: CensusSummary | None = None
    ) -> None:
        tail = "\n  ]" if self.started else self.head + "]"
        if summary is not None:
            tail += ',\n  "summary": ' + _member(summary.to_dict())
        self.out.write(tail + ',\n  "header": ' + _member(_header(command, runtime)) + "\n}\n")


def _cell(value):
    if isinstance(value, list):
        return json.dumps(value)
    if isinstance(value, dict):
        return ";".join(f"{k}:{v}" for k, v in value.items())
    return value


class CsvWriter:
    """A header row named by the first row's keys, then one line per row.

    A census passes no rows: its CSV output is the summary table alone.
    """

    def __init__(self, out: TextIO):
        self.out = out
        self.started = False

    def reports(self, reports: list[CheckReport]) -> None:
        self.rows([r.row() for r in reports])

    def rows(self, rows: list[dict]) -> None:
        if not rows:
            return
        import csv

        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        if not self.started:
            writer.writerow(rows[0])
            self.started = True
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
        self.out.write(text.getvalue())

    def close(
        self, command: str = "", runtime: float | None = None, summary: CensusSummary | None = None
    ) -> None:
        if summary is not None:
            self.out.write(summary_to_csv(summary))


def summary_to_csv(summary: CensusSummary) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["prop", "pass", "fail", "vacuous", "skipped", "total"])
    for pid, by_status in sorted(summary.counts.items()):
        row = [
            by_status.get("pass", 0),
            by_status.get("fail", 0),
            by_status.get("vacuous", 0),
            by_status.get("skipped", 0),
        ]
        writer.writerow([pid, *row, sum(row)])
    return out.getvalue()


# Whole documents from rows already in memory, through the same writers.


def _document(writer: JsonWriter | CsvWriter, rows: list[dict], *close_args) -> str:
    writer.rows(rows)
    writer.close(*close_args)
    return writer.out.getvalue()


def reports_to_json(
    reports: list[CheckReport],
    command: str,
    summary: CensusSummary | None = None,
    runtime: float | None = None,
) -> str:
    writer = JsonWriter(io.StringIO(), "reports")
    writer.reports(reports)
    writer.close(command, runtime, summary)
    return writer.out.getvalue()


def reports_to_csv(reports: list[CheckReport]) -> str:
    return _document(CsvWriter(io.StringIO()), [r.row() for r in reports])


def records_to_json(
    records: list[tuple[str, InvariantRecord]], command: str, runtime: float | None = None
) -> str:
    rows = [record_row(g6, record) for g6, record in records]
    return _document(JsonWriter(io.StringIO(), "records"), rows, command, runtime)


def records_to_csv(records: list[tuple[str, InvariantRecord]]) -> str:
    return _document(CsvWriter(io.StringIO()), [record_row(g6, record) for g6, record in records])
