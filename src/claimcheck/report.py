"""Per-application report documents: canonical JSON and reviewer HTML.

Each report is one dict, written as JSON and rendered as HTML, so both
files are pure functions of the report content: report trees can be
golden-tested and hash-compared across runs, and no report carries a
timestamp.
"""

from __future__ import annotations

import html

from .base import CheckStatus, ReportKind, canonical_json_bytes
from .ingest import UnsupportedNotice
from .rules import STATUS_LABELS, CheckOutcome, Evidence

# The version of the layout of every report JSON, extraction.json and
# manifest.json, each of which records it as "schema_version"; a change to
# their bytes bumps it.
SCHEMA_VERSION = 2


class HtmlEscapes(dict):
    """The HTML escape of each string looked up, each escaped once: one per
    application, for its three pages, starting from a copy of the escapes
    given, such as ``Catalog.escaped_texts``."""

    def __missing__(self, text: str) -> str:
        escaped = self[text] = html.escape(text)
        return escaped


def _side(evidence: Evidence) -> dict:
    return {
        "source": evidence.source,
        "state": evidence.state,
        "rendered": evidence.rendered,
        "detail": evidence.detail,
    }


# what a report records of each status: its value and its label
_STATUS_FIELDS = {status: (status.value, label) for status, label in STATUS_LABELS.items()}


def _outcome_dict(outcome: CheckOutcome) -> dict:
    status, label = _STATUS_FIELDS[outcome.status]
    return {
        "check_id": outcome.check_id,
        "description": outcome.description,
        "status": status,
        "label": label,
        "message": outcome.message,
        "lhs": _side(outcome.lhs),
        "rhs": _side(outcome.rhs),
    }


def report_dict(app_id: str, kind: ReportKind, outcomes: list[CheckOutcome],
                notices: list[UnsupportedNotice], catalog_version: str) -> dict:
    """The one record of a report: written as JSON and rendered as HTML."""
    records = [_outcome_dict(o) for o in outcomes]
    counts = {status: 0 for status, _ in _STATUS_FIELDS.values()}
    for record in records:
        counts[record["status"]] += 1
    return {
        "schema_version": SCHEMA_VERSION,
        "app_id": app_id,
        "kind": kind.value,
        "catalog_version": catalog_version,
        "outcomes": records,
        "unsupported": [
            {"path": n.path, "reason": n.reason, "message": n.message, "slot": n.slot.value}
            for n in notices
        ],
        "status_counts": counts,
    }


_REPORT_TITLES = {
    ReportKind.ELIGIBILITY: "Eligibility Report",
    ReportKind.COMMON_CORE: "Common Core Report",
    ReportKind.TYPOLOGY: "Typology Report",
}

_STYLE = """
body { font-family: Arial, Helvetica, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #bbb; padding: 6px 10px; text-align: left; vertical-align: top; }
th { background: #f0f0f0; }
tr.manual { background: #ffe0e0; }
tr.unsupported { background: #fff3d6; }
.badge { font-weight: bold; padding: 2px 6px; border-radius: 4px; white-space: nowrap; }
.badge.auto_verified { background: #d9f2d9; color: #1e6b1e; }
.badge.manual_check { background: #c62828; color: #fff; }
.badge.unsupported { background: #e8a13a; color: #fff; }
.banner { background: #d9f2d9; color: #1e6b1e; padding: 10px 14px;
          border-radius: 4px; margin-bottom: 1em; font-weight: bold; }
.src { color: #777; font-size: 0.85em; }
footer { margin-top: 2em; color: #888; font-size: 0.8em; }
"""


_ROW_CLASSES = {
    CheckStatus.MANUAL_CHECK.value: ' class="manual"',
    CheckStatus.UNSUPPORTED.value: ' class="unsupported"',
}


def render_html(report: dict, escape: HtmlEscapes | None = None) -> bytes:
    """Self-contained reviewer page of a ``report_dict``; manual checks
    highlighted in red. The pages of one application may share ``escape``."""
    if escape is None:
        escape = HtmlEscapes()

    def cell(side: dict) -> str:
        value = side["rendered"] if side["rendered"] is not None else f"({side['state']})"
        if side["detail"]:
            return (f'{escape[value]}<div class="src">{escape[side["source"]]}</div>'
                    f'<div class="src">{escape[side["detail"]]}</div>')
        return f'{escape[value]}<div class="src">{escape[side["source"]]}</div>'

    rows = [
        f"<tr{_ROW_CLASSES.get(outcome['status'], '')}>"
        f"<td>{escape[outcome['description']]}</td>"
        f'<td><span class="badge {outcome["status"]}">{escape[outcome["label"]]}</span></td>'
        f"<td>{cell(outcome['lhs'])}</td>"
        f"<td>{cell(outcome['rhs'])}</td>"
        f"<td>{escape[outcome['message']]}</td>"
        "</tr>"
        for outcome in report["outcomes"]
    ]

    banner = ""
    auto = report["status_counts"][CheckStatus.AUTO_VERIFIED.value]
    if report["outcomes"] and auto == len(report["outcomes"]):
        banner = '<div class="banner">No verification needed for this report.</div>'

    notices = ""
    if report["unsupported"]:
        items = "".join(
            f"<li><b>{escape[n['path']]}</b> [{escape[n['reason']]}]: "
            f"{escape[n['message']]}</li>"
            for n in report["unsupported"]
        )
        notices = f"<h2>Unsupported files</h2><ul>{items}</ul>"

    title = escape[_REPORT_TITLES[ReportKind(report["kind"])]]
    app_id = escape[report["app_id"]]
    page = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title} - {app_id}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{title} &mdash; application {app_id}</h1>
{banner}
<table>
<thead><tr><th>Verification</th><th>Status</th><th>Declared / left</th>
<th>Extracted / right</th><th>Notes</th></tr></thead>
<tbody>
{"".join(rows)}
</tbody>
</table>
{notices}
<footer>catalog version {escape[report["catalog_version"]]}</footer>
</body>
</html>
"""
    return page.encode("utf-8")
