"""Output checks. Each finds the applications whose outputs are wrong.

The checks read the corpus and the output tree directly and import
nothing from the program, so they do not share its mistakes. None
compares against a stored copy of today's output: each is either a
property the output must have (fail-safe, accounting, counts) or an
equality between two runs the program must make agree.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REPORT_KINDS = ("eligibility", "common_core", "typology")
APP_FILES = tuple(f"{k}.{ext}" for k in REPORT_KINDS for ext in ("json", "html")) + (
    "extraction.json",)
ALL = "*"  # failure of the whole run rather than of named applications


class CorpusFacts:
    """What the benchmark knows about a corpus from its own reading of it."""

    def __init__(self, root: Path):
        self.root = root
        self.app_ids = sorted(p.name for p in root.iterdir() if p.is_dir())
        self.files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
        self.real_errors: dict[str, set[str]] = {app: set() for app in self.app_ids}
        self.labels = 0
        with open(root / "labels.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                self.labels += 1
                if row["real_error"].strip().lower() == "true":
                    self.real_errors.setdefault(row["app_id"], set()).add(row["check_id"])
        plan = json.loads((root / "corpus_manifest.json").read_text(encoding="utf-8"))
        self.unsupported = {a["app_id"]: len(a["unsupported_files"]) for a in plan["apps"]}
        self.unsupported_total = plan["unsupported_files"]


class RunOutput:
    """One verify output tree, read once for every check."""

    def __init__(self, out: Path, app_ids: list[str]):
        self.out = out
        self.missing: dict[str, list[str]] = {}
        self.statuses: dict[str, dict[str, str]] = {}
        self.notices: dict[str, int] = {}
        self.json_digest: dict[str, str] = {}
        for app in app_ids:
            app_dir = out / app
            self.missing[app] = [n for n in APP_FILES if not (app_dir / n).is_file()]
            statuses: dict[str, str] = {}
            digest = hashlib.sha256()
            notices = 0
            for name in sorted(p.name for p in app_dir.glob("*.json")):
                data = (app_dir / name).read_bytes()
                digest.update(name.encode() + b"\0" + data + b"\0")
                if name[:-5] in REPORT_KINDS:
                    report = json.loads(data)
                    statuses.update((o["check_id"], o["status"]) for o in report["outcomes"])
                    notices = max(notices, len(report["unsupported"]))
            self.statuses[app] = statuses
            self.notices[app] = notices
            self.json_digest[app] = digest.hexdigest()
        self.manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        self.metrics_bytes = (out / "metrics.json").read_bytes()

    def recount(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for statuses in self.statuses.values():
            for status in statuses.values():
                counts[status] = counts.get(status, 0) + 1
        return counts


def _counts_agree(metrics: dict, recount: dict[str, int], apps: int) -> bool:
    total = metrics["total"]
    stated = {k: v for k, v in total["status_counts"].items() if v}
    return stated == recount and total["applications"] == apps


def check_run(facts: CorpusFacts, run: RunOutput, corpus_label: str) -> dict[str, str]:
    """Checks every verify output must pass. Returns {app or ALL: reason}."""
    failed: dict[str, str] = {}

    def fail(app: str, reason: str) -> None:
        failed.setdefault(app, reason)

    for app in facts.app_ids:
        if run.missing[app]:
            fail(app, f"missing outputs {run.missing[app]}")
        statuses = run.statuses[app]
        for check_id in sorted(facts.real_errors.get(app, ())):
            if statuses.get(check_id, "absent") in ("auto_verified", "absent"):
                fail(app, f"fail-safe: labelled error {check_id} is "
                          f"{statuses.get(check_id, 'absent')}")
        if run.notices[app] != facts.unsupported.get(app, 0):
            fail(app, f"{run.notices[app]} unsupported notices, corpus plan has "
                      f"{facts.unsupported.get(app, 0)}")

    # file accounting: each file found by walking the corpus is listed once
    listed: dict[str, int] = {}
    for key in ("processed", "unsupported", "failed"):
        for rel in run.manifest["files"][key]:
            listed[rel] = listed.get(rel, 0) + 1
    for rel in facts.files:
        if listed.get(rel, 0) != 1:
            app = rel.split("/", 1)[0] if "/" in rel else ALL
            fail(app, f"file {corpus_label}/{rel} listed {listed.get(rel, 0)} times")

    counts = run.manifest["counts"]
    if counts["unsupported_notices"] != facts.unsupported_total:
        fail(ALL, f"manifest has {counts['unsupported_notices']} unsupported notices, "
                  f"corpus plan has {facts.unsupported_total}")
    if not _counts_agree(json.loads(run.metrics_bytes), run.recount(), len(facts.app_ids)):
        fail(ALL, "metrics.json status counts differ from the recount of the reports")
    return failed


def check_metrics_output(facts: CorpusFacts, run: RunOutput) -> dict[str, str]:
    """``metrics --labels`` rewrote metrics.json; its counts must still agree."""
    metrics = json.loads((run.out / "metrics.json").read_text(encoding="utf-8"))
    if not _counts_agree(metrics, run.recount(), len(facts.app_ids)):
        return {ALL: "metrics --labels status counts differ from the recount"}
    if metrics.get("taxonomy", {}).get("labeled_total") != facts.labels:
        return {ALL: "metrics --labels did not classify every labelled check"}
    return {}


def digests(run: RunOutput) -> dict[str, str]:
    """Per-app digests of the JSON outputs, and of metrics.json as verify wrote it."""
    return {**run.json_digest, "metrics.json": hashlib.sha256(run.metrics_bytes).hexdigest()}


def check_same_digests(run: RunOutput, reference: dict[str, str], what: str) -> dict[str, str]:
    """Byte determinism: the same digests as ``reference``."""
    failed = {app: f"JSON outputs differ from {what}" for app, digest in run.json_digest.items()
              if reference.get(app) != digest}
    if reference.get("metrics.json") != digests(run)["metrics.json"]:
        failed[ALL] = f"metrics.json differs from {what}"
    return failed


def check_same_tree(run: RunOutput, reference: Path, what: str) -> dict[str, str]:
    """Every output file except manifest.json is byte-equal to ``reference``'s."""
    failed: dict[str, str] = {}
    for app in run.statuses:
        for name in APP_FILES:
            ours, theirs = run.out / app / name, reference / app / name
            if (not ours.is_file() or not theirs.is_file()
                    or ours.read_bytes() != theirs.read_bytes()):
                failed[app] = f"{name} differs from {what}"
                break
    for name in ("metrics.json", "cost_time.csv"):
        if (run.out / name).read_bytes() != (reference / name).read_bytes():
            failed[ALL] = f"{name} differs from {what}"
    return failed


def check_same_statuses(run: RunOutput, reference: RunOutput, what: str) -> dict[str, str]:
    """Every check's status equals its status in ``reference``."""
    failed: dict[str, str] = {}
    for app, statuses in run.statuses.items():
        theirs = reference.statuses.get(app, {})
        if statuses != theirs:
            diff = sorted(k for k in statuses.keys() | theirs.keys()
                          if statuses.get(k) != theirs.get(k))
            failed[app] = f"{len(diff)} check statuses differ from {what}, e.g. {diff[0]}"
    return failed
