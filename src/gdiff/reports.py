"""JSON and CSV serialization for reports, summaries, and invariant records.

All volatile fields (timestamps, runtimes) live in a single header object;
everything below the header is a pure function of the inputs and flags, so
two runs with equal flags produce byte-identical bodies.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone

from .propositions import CensusSummary, CheckReport
from .solvers import InvariantRecord

REPORT_FIELDS = ("prop", "instance_g6", "status", "witness_sets", "note")


def _header(command: str, runtime: float | None) -> dict:
    return {
        "tool": "gdiff",
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "runtime_seconds": round(runtime, 3) if runtime is not None else None,
    }


def reports_to_json(
    reports: list[CheckReport],
    command: str,
    summary: CensusSummary | None = None,
    runtime: float | None = None,
) -> str:
    payload: dict = {
        "header": _header(command, runtime),
        "reports": [r.row() for r in reports],
    }
    if summary is not None:
        payload["summary"] = summary.to_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_csv(reports: list[CheckReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        row = r.row()
        writer.writerow(
            [
                row["prop"],
                row["instance_g6"],
                row["status"],
                json.dumps(row["witness_sets"]),
                row["note"],
            ]
        )
    return out.getvalue()


def summary_to_csv(summary: CensusSummary) -> str:
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


def records_to_json(
    records: list[tuple[str, InvariantRecord]], command: str, runtime: float | None = None
) -> str:
    payload = {
        "header": _header(command, runtime),
        "records": [
            {"instance_g6": g6, **record.to_dict()} for g6, record in records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def records_to_csv(records: list[tuple[str, InvariantRecord]]) -> str:
    """One row per record, columns as in ``InvariantRecord.to_dict``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i, (g6, record) in enumerate(records):
        row = {"instance_g6": g6, **record.to_dict()}
        row["skipped"] = ";".join(f"{k}:{v}" for k, v in row["skipped"].items())
        if i == 0:
            writer.writerow(row)
        writer.writerow(row.values())
    return out.getvalue()
