"""Corpus-level aggregation: suppression rate, cost/time accounting and
error-taxonomy counts against externally supplied ground-truth labels.

The pipeline never labels its own correctness; taxonomy buckets only
exist when a reviewer (or the synthetic-corpus generator) provides a
label file.

``compute_metrics`` folds a finished run's report files again; this
module imports none of the verify machinery, so neither does the ``metrics``
command.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .base import VALID_TYPOLOGIES, CheckStatus, ReportKind, canonical_json_bytes

# Extraction cost is attributed to the report a document chiefly feeds:
# registry/certificate pages back the eligibility report, invoice and
# receipt the common core, everything else the typology report.
SLOT_BUCKETS = {
    "property_registry": "eligibility",
    "energy_certificate": "eligibility",
    "invoice": "common_core",
    "receipt": "common_core",
}
DEFAULT_BUCKET = "typology"


def slot_bucket(slot: str) -> str:
    return SLOT_BUCKETS.get(slot, DEFAULT_BUCKET)


@dataclass
class AppRecord:
    """Everything metrics needs to know about one processed application."""

    app_id: str
    typology: str
    # rendered outcome dicts: check_id, status and lhs/rhs states when labels
    # are folded; a verify run folds none and keeps only each status
    outcomes: list[dict]
    metas: list[dict] = field(default_factory=list)  # {slot, cost_eur, elapsed_ms}

    def document_costs(self) -> list[tuple[str, float, float]]:
        """The report bucket, cost in EUR and seconds of each document."""
        return [(slot_bucket(str(meta.get("slot", ""))), float(meta.get("cost_eur", 0.0)),
                 float(meta.get("elapsed_ms", 0)) / 1000.0) for meta in self.metas]


@dataclass
class MetricsBlock:
    applications: int = 0
    status_counts: dict[str, int] = field(default_factory=lambda: {s.value: 0 for s in CheckStatus})
    cost_total_eur: float = 0.0
    time_total_s: float = 0.0

    @property
    def suppression_rate(self) -> float | None:
        """Auto-verified checks over all checks; None with no check."""
        checks = sum(self.status_counts.values())
        if checks == 0:
            return None
        return self.status_counts[CheckStatus.AUTO_VERIFIED.value] / checks

    def add(self, statuses: dict[str, int], costs: list[tuple[str, float, float]]) -> None:
        """Count one application: how many of its checks got each status,
        and each of its documents' ``AppRecord.document_costs``."""
        self.applications += 1
        counts = self.status_counts
        for status, n in statuses.items():
            counts[status] += n
        for _, cost, time_s in costs:
            self.cost_total_eur += cost
            self.time_total_s += time_s

    def to_dict(self) -> dict:
        apps = self.applications or 1
        return {
            "applications": self.applications,
            "status_counts": dict(self.status_counts),
            "checks_total": sum(self.status_counts.values()),
            "suppression_rate": self.suppression_rate,
            "cost_eur": {"total": round(self.cost_total_eur, 4),
                         "avg_per_app": round(self.cost_total_eur / apps, 4)},
            "time_s": {"total": round(self.time_total_s, 3),
                       "avg_per_app": round(self.time_total_s / apps, 3)},
        }


class LabelError(ValueError):
    pass


_AUTO_VERIFIED = CheckStatus.AUTO_VERIFIED.value


def _classify_labeled(outcome: dict, status: str, label: dict) -> str:
    """Error-taxonomy bucket for one labeled verification field, whose
    outcome has ``status``.

    False positive: the pipeline auto-verified a field that was actually
    wrong. False negative: it flagged a field that was fine. Reading
    errors are detected from the evidence itself.
    """
    if "unreadable" in (outcome["lhs"]["state"], outcome["rhs"]["state"]):
        return "reading_error"
    real_error = bool(label.get("real_error"))
    if status == _AUTO_VERIFIED:
        return "false_positive" if real_error else "correct"
    if label.get("category") == "minor_error":
        return "minor_error"
    return "correct" if real_error else "false_negative"


def _typology_sort_key(tid: str) -> tuple:
    try:
        return (0, VALID_TYPOLOGIES.index(tid))
    except ValueError:
        return (1, tid)


@dataclass
class CostTimeTable:
    rows: list[tuple[str, float, float]]  # (label, cost_eur, time_s)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["report", "cost_eur", "time_s"])
        for label, cost, time_s in self.rows:
            writer.writerow([label, f"{cost:.2f}", f"{time_s:.2f}"])
        return buffer.getvalue()


class RunTotals:
    """A run's totals, folded in one application at a time, so no run keeps
    its records: the total and per-typology blocks, the cost/time buckets
    and, when labels are given, the taxonomy buckets of the labelled checks.

    Sums run per application first, then across applications in the order
    they are added (app-id order), as ``cost_time.csv`` has always summed.
    """

    def __init__(self, labels: dict[tuple[str, str], dict] | None = None):
        self.total = MetricsBlock()
        self.per_typology: dict[str, MetricsBlock] = {}
        self.documents = 0
        # [cost, time] sums per report bucket over every application, and
        # of the typology bucket per typology
        self.buckets = {"eligibility": [0.0, 0.0], "common_core": [0.0, 0.0],
                        "typology": [0.0, 0.0]}
        self.typology_costs: dict[str, list[float]] = {}
        self.labels = labels
        self.labelled: dict[tuple[str, str], str] = {}  # label key -> taxonomy bucket

    @classmethod
    def of(cls, records, labels: dict[tuple[str, str], dict] | None = None) -> "RunTotals":
        totals = cls(labels)
        for record in records:
            totals.add(record)
        return totals

    def add(self, record: AppRecord) -> None:
        """Fold in one application: one pass over its outcomes counts their
        statuses and classifies the labelled ones, and one over its
        documents converts their costs."""
        statuses = dict.fromkeys(self.total.status_counts, 0)
        labels, labelled, app_id = self.labels, self.labelled, record.app_id
        for outcome in record.outcomes:
            status = outcome["status"]
            statuses[status] += 1
            if labels is not None:
                key = (app_id, outcome["check_id"])
                label = labels.get(key)
                if label is not None:
                    labelled[key] = _classify_labeled(outcome, status, label)
        costs = record.document_costs()
        self.total.add(statuses, costs)
        block = self.per_typology.get(record.typology)
        if block is None:
            block = self.per_typology[record.typology] = MetricsBlock()
        block.add(statuses, costs)
        self.documents += len(costs)
        app = {bucket: [0.0, 0.0] for bucket in self.buckets}
        for bucket, cost, time_s in costs:
            sums = app[bucket]
            sums[0] += cost
            sums[1] += time_s
        for bucket, (cost, time_s) in app.items():
            self.buckets[bucket][0] += cost
            self.buckets[bucket][1] += time_s
        typology = self.typology_costs.setdefault(record.typology, [0.0, 0.0])
        typology[0] += app["typology"][0]
        typology[1] += app["typology"][1]

    def metrics(self) -> dict:
        """The corpus metrics summary of ``metrics.json`` (per typology and total)."""
        summary = {
            "total": self.total.to_dict(),
            "per_typology": {
                tid: self.per_typology[tid].to_dict()
                for tid in sorted(self.per_typology, key=_typology_sort_key)
            },
        }
        if self.labels is not None:
            unknown = sorted(set(self.labels) - set(self.labelled))
            if unknown:
                app_id, check_id = unknown[0]
                raise LabelError(f"label references unknown outcome: {app_id}/{check_id}")
            buckets = {"correct": 0, "minor_error": 0, "false_positive": 0,
                       "false_negative": 0, "reading_error": 0}
            for bucket in self.labelled.values():
                buckets[bucket] += 1
            labeled = sum(buckets.values())
            summary["taxonomy"] = {
                **buckets,
                "labeled_total": labeled,
                "accuracy": (buckets["correct"] / labeled) if labeled else None,
            }
        return summary

    def cost_time(self) -> CostTimeTable:
        """Average extraction cost/time per report kind, mirroring the
        deployment accounting: one row per typology, the cross-typology
        average, the two shared reports, and their sum as the total."""
        n = self.total.applications
        if not n:
            return CostTimeTable(rows=[("Total", 0.0, 0.0)])
        rows: list[tuple[str, float, float]] = []
        for tid in sorted(self.typology_costs, key=_typology_sort_key):
            apps = self.per_typology[tid].applications
            cost, time_s = self.typology_costs[tid]
            rows.append((f"Typology {tid}", cost / apps, time_s / apps))
        typ_cost, typ_time = (v / n for v in self.buckets["typology"])
        elig_cost, elig_time = (v / n for v in self.buckets["eligibility"])
        common_cost, common_time = (v / n for v in self.buckets["common_core"])
        rows.append(("All Typologies Avg.", typ_cost, typ_time))
        rows.append(("Eligibility", elig_cost, elig_time))
        rows.append(("Common Core", common_cost, common_time))
        rows.append(("Total", typ_cost + elig_cost + common_cost,
                     typ_time + elig_time + common_time))
        return CostTimeTable(rows=rows)

    def counts(self) -> dict:
        """The manifest's counts of processed applications, documents and
        checks (statuses that occurred, sorted)."""
        return {
            "applications_processed": self.total.applications,
            "documents": self.documents,
            "checks_by_status": {k: v for k, v in sorted(self.total.status_counts.items()) if v},
        }


def cost_time_summary(records: list[AppRecord]) -> CostTimeTable:
    """The cost/time table of ``records`` (see ``RunTotals.cost_time``)."""
    return RunTotals.of(records).cost_time()


# what a real_error value may say, in any case: a value that says neither
# must not count a real error as none
_REAL_ERROR = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def read_labels_csv(text: str) -> dict[tuple[str, str], dict]:
    """Parse `app_id,check_id,real_error[,category]` ground-truth labels.
    A short row, a real_error that is none of true/false, 1/0 or yes/no,
    or a second label for the same check, is a LabelError."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    # a column named twice is read from its last place, as csv.DictReader does
    columns = {name: index for index, name in enumerate(header or ())}
    if not {"app_id", "check_id", "real_error"}.issubset(columns):
        raise LabelError("label file must have columns app_id,check_id,real_error[,category]")
    app_col, check_col, error_col = columns["app_id"], columns["check_id"], columns["real_error"]
    category_col = columns.get("category", -1)
    needed = max(app_col, check_col, error_col)
    labels: dict[tuple[str, str], dict] = {}
    lines: dict[tuple[str, str], int] = {}
    for row in reader:
        if not row:  # a blank line
            continue
        if len(row) <= needed:
            raise LabelError(f"label line {reader.line_num} lacks a value for app_id, "
                             f"check_id or real_error")
        key = (row[app_col], row[check_col])
        if key in labels:
            raise LabelError(f"label lines {lines[key]} and {reader.line_num} both label "
                             f"{key[0]}/{key[1]}")
        lines[key] = reader.line_num
        real_error = _REAL_ERROR.get(row[error_col].strip().lower())
        if real_error is None:
            raise LabelError(f"label line {reader.line_num}: real_error {row[error_col]!r} is "
                             f"none of true, false, 1, 0, yes, no")
        category = row[category_col].strip() if 0 <= category_col < len(row) else ""
        labels[key] = {"real_error": real_error, "category": category or None}
    return labels


class MetricsError(ValueError):
    pass


def _read(path: str) -> bytes:
    with open(path, "rb", buffering=0) as file:
        return file.read()


def load_records_from_outputs(out_dir: Path):
    """Yield per-application records rebuilt from a previous verify run,
    one at a time, in app-id order.

    ``out_dir`` is listed once. Each directory in it is read as one
    application: its ``extraction.json`` and each of its three reports,
    each read once, whole. A directory with no ``extraction.json`` is
    skipped, and a missing report adds no outcome.
    """
    try:
        with os.scandir(out_dir) as entries:
            names = sorted(entry.name for entry in entries if entry.is_dir())
    except (FileNotFoundError, NotADirectoryError):
        raise MetricsError(f"outputs directory not found: {out_dir}") from None
    root = os.path.join(out_dir, "")
    reports = [f"{kind.value}.json" for kind in ReportKind]
    for name in names:
        prefix = f"{root}{name}{os.sep}"
        try:
            extraction = json.loads(_read(f"{prefix}extraction.json"))
        except (FileNotFoundError, IsADirectoryError):
            continue
        outcomes: list[dict] = []
        for report in reports:
            try:
                data = _read(f"{prefix}{report}")
            except (FileNotFoundError, IsADirectoryError):
                continue
            outcomes.extend(json.loads(data)["outcomes"])
        yield AppRecord(
            app_id=extraction["app_id"],
            typology=extraction["typology"],
            outcomes=outcomes,
            metas=extraction["docs"],
        )


def _write_totals(out_dir: Path, totals: RunTotals) -> dict:
    """Write ``metrics.json`` and ``cost_time.csv``; return the metrics."""
    summary = totals.metrics()
    (out_dir / "metrics.json").write_bytes(canonical_json_bytes(summary))
    (out_dir / "cost_time.csv").write_text(totals.cost_time().to_csv(), encoding="utf-8")
    return summary


def compute_metrics(out_dir: Path, labels: dict | None = None) -> dict:
    """Fold the reports of the verify run in ``out_dir``, with ``labels``
    when given, and write its ``metrics.json`` and ``cost_time.csv``."""
    totals = RunTotals.of(load_records_from_outputs(out_dir), labels)
    if not totals.total.applications:
        raise MetricsError(f"no verify outputs under {out_dir}")
    return _write_totals(Path(out_dir), totals)
