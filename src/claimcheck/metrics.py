"""Corpus-level aggregation: suppression rate, cost/time accounting and
error-taxonomy counts against externally supplied ground-truth labels.

The pipeline never labels its own correctness; taxonomy buckets only
exist when a reviewer (or the synthetic-corpus generator) provides a
label file.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .ingest import VALID_TYPOLOGIES
from .rules import CheckStatus

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

    def bucket_costs(self) -> dict[str, tuple[float, float]]:
        sums: dict[str, list[float]] = {"eligibility": [0.0, 0.0],
                                        "common_core": [0.0, 0.0],
                                        "typology": [0.0, 0.0]}
        for meta in self.metas:
            bucket = slot_bucket(str(meta.get("slot", "")))
            sums[bucket][0] += float(meta.get("cost_eur", 0.0))
            sums[bucket][1] += float(meta.get("elapsed_ms", 0)) / 1000.0
        return {k: (v[0], v[1]) for k, v in sums.items()}


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

    def add(self, record: AppRecord) -> None:
        self.applications += 1
        for outcome in record.outcomes:
            self.status_counts[outcome["status"]] += 1
        for meta in record.metas:
            self.cost_total_eur += float(meta.get("cost_eur", 0.0))
            self.time_total_s += float(meta.get("elapsed_ms", 0)) / 1000.0

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


def _classify_labeled(outcome: dict, real_error: bool, category: str | None) -> str:
    """Error-taxonomy bucket for one labeled verification field.

    False positive: the pipeline auto-verified a field that was actually
    wrong. False negative: it flagged a field that was fine. Reading
    errors are detected from the evidence itself.
    """
    states = (outcome["lhs"]["state"], outcome["rhs"]["state"])
    if "unreadable" in states:
        return "reading_error"
    status = outcome["status"]
    auto = status == CheckStatus.AUTO_VERIFIED.value
    if auto:
        return "false_positive" if real_error else "correct"
    if category == "minor_error":
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
        self.total.add(record)
        self.per_typology.setdefault(record.typology, MetricsBlock()).add(record)
        self.documents += len(record.metas)
        costs = record.bucket_costs()
        for bucket, (cost, time_s) in costs.items():
            self.buckets[bucket][0] += cost
            self.buckets[bucket][1] += time_s
        typology = self.typology_costs.setdefault(record.typology, [0.0, 0.0])
        typology[0] += costs["typology"][0]
        typology[1] += costs["typology"][1]
        if self.labels is not None:
            for outcome in record.outcomes:
                key = (record.app_id, outcome["check_id"])
                label = self.labels.get(key)
                if label is not None:
                    self.labelled[key] = _classify_labeled(
                        outcome, bool(label.get("real_error")), label.get("category"))

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


def read_labels_csv(text: str) -> dict[tuple[str, str], dict]:
    """Parse `app_id,check_id,real_error[,category]` ground-truth labels."""
    labels: dict[tuple[str, str], dict] = {}
    reader = csv.DictReader(io.StringIO(text))
    required = {"app_id", "check_id", "real_error"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise LabelError("label file must have columns app_id,check_id,real_error[,category]")
    for row in reader:
        if None in (row["app_id"], row["check_id"], row["real_error"]):  # a short row
            raise LabelError(f"label line {reader.line_num} lacks a value for app_id, "
                             f"check_id or real_error")
        key = (row["app_id"], row["check_id"])
        labels[key] = {
            "real_error": row["real_error"].strip().lower() in ("1", "true", "yes"),
            "category": (row.get("category") or "").strip() or None,
        }
    return labels
