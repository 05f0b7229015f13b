"""Outside-in tracing of one claimcheck command, and the layer metrics
computed from its spans.

Run as a script, ``tracing.py SPANS_FILE ARGS...`` wraps the public
functions of each ``claimcheck`` module at the names its callers look
them up by, runs ``claimcheck.cli.main(ARGS)`` and writes the spans it
recorded as JSON lines to SPANS_FILE when the command ends. Nothing in
the program is edited; a function that is not there is not wrapped, and
its metrics read 0.

A span is ``{"id", "name", "start", "end", "parent", "app", "n"}``:
``parent`` is the enclosing span on the same thread (or the outermost
open span when a worker thread has none), ``app`` the application id it
belongs to, and ``n`` a count of work items taken from the return value
where one exists.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time

# (module, attribute, span name, count of work items in the return value)
# Pipeline code calls most layers through names it imported, so the
# wrappers go on the pipeline module's names.
TARGETS = (
    ("claimcheck.pipeline", "verify_corpus", "pipeline.verify", None),
    ("claimcheck.pipeline", "load_catalog_file", "catalog.load", None),
    ("claimcheck.pipeline", "scan_corpus", "ingest.scan", None),
    ("claimcheck.pipeline", "expand_archives", "ingest.expand", "expand"),
    ("claimcheck.pipeline", "map_documents", "ingest.map", None),
    ("claimcheck.pipeline", "_process_application", "pipeline.app", None),
    ("claimcheck.pipeline", "extract", "extract.extract", None),
    ("claimcheck.pipeline", "evaluate_application", "rules.evaluate", "outcomes"),
    ("claimcheck.pipeline", "render_json", "report.render_json", None),
    ("claimcheck.pipeline", "render_html", "report.render_html", None),
    ("claimcheck.pipeline", "report_dict", "report.report_dict", None),
    ("claimcheck.report", "report_dict", "report.report_dict", None),
    ("claimcheck.pipeline", "build_manifest", "pipeline.manifest", None),
    ("claimcheck.pipeline", "load_records_from_outputs", "metrics.load_records", None),
    ("claimcheck.pipeline", "aggregate_metrics", "metrics.aggregate", None),
    ("claimcheck.backends", "MockBackend.fetch", "backends.fetch", None),
    ("claimcheck.backends", "RemoteBackend.fetch", "backends.fetch", None),
)


def _count(kind: str | None, result) -> int | list | None:
    if kind == "outcomes":  # {ReportKind: [CheckOutcome]}
        return sum(len(v) for v in result.values())
    if kind == "expand":  # [archive members, unsupported notices] after expansion
        return [sum(1 for d in result.documents if d.origin == "archive_member"),
                len(result.unsupported)]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: dict | None = None

    def wrap(self, fn, name: str, count_kind: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._root
            app = getattr(args[0], "app_id", None) if args else None
            if app is None and parent is not None:
                app = parent["app"]
            span = {"id": next(tracer._ids), "name": name, "parent": parent and parent["id"],
                    "app": app, "n": None}
            if tracer._root is None:
                tracer._root = span
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["n"] = _count(count_kind, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if tracer._root is span:
                    tracer._root = None
                tracer.spans.append(span)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count_kind in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is not None:
                setattr(owner, leaf, self.wrap(fn, name, count_kind))


def load_spans(path) -> list[dict]:
    """Spans a traced command wrote; none if it wrote no file."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def verify_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy time per layer, summed over threads, and its work counts."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    fetches = by_name.get("backends.fetch", [])
    fetch_ms = sorted((s["end"] - s["start"]) * 1000.0 for s in fetches)
    extract_ids = {s["id"] for s in by_name.get("extract.extract", ())}
    nested_fetch = sum(s["end"] - s["start"] for s in fetches if s["parent"] in extract_ids)
    expands = by_name.get("ingest.expand", [])
    verify = by_name.get("pipeline.verify", [])
    verify_s = sum(s["end"] - s["start"] for s in verify)
    covered = 0.0
    for root in verify:
        inner = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
                 for s in spans if s is not root and s["end"] > root["start"]
                 and s["start"] < root["end"]]
        covered += _covered(inner)
    return {
        "catalog.load_s": total("catalog.load"),
        "ingest.scan_s": total("ingest.scan"),
        "ingest.expand_s": total("ingest.expand"),
        "ingest.map_s": total("ingest.map"),
        "ingest.archive_members": sum(s["n"][0] for s in expands if s["n"]),
        "ingest.unsupported_notices": sum(s["n"][1] for s in expands if s["n"]),
        "backends.fetch_calls": len(fetches),
        "backends.fetch_s": sum(fetch_ms) / 1000.0,
        "backends.fetch_p50_ms": _quantile(fetch_ms, 0.50),
        "backends.fetch_p95_ms": _quantile(fetch_ms, 0.95),
        "extract.docs": len(by_name.get("extract.extract", ())),
        "extract.self_s": total("extract.extract") - nested_fetch,
        "rules.evaluate_s": total("rules.evaluate"),
        "rules.checks": sum(s["n"] or 0 for s in by_name.get("rules.evaluate", ())),
        "report.render_json_s": total("report.render_json"),
        "report.render_html_s": total("report.render_html"),
        "report.report_dict_calls": len(by_name.get("report.report_dict", ())),
        "pipeline.manifest_s": total("pipeline.manifest"),
        "pipeline.verify_s": verify_s,
        "pipeline.self_s": verify_s - covered,
    }


def metrics_layer_metrics(spans: list[dict]) -> dict[str, float]:
    by_name: dict[str, float] = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + span["end"] - span["start"]
    return {
        "metrics.load_records_s": by_name.get("metrics.load_records", 0.0),
        "metrics.aggregate_s": by_name.get("metrics.aggregate", 0.0),
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from claimcheck.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
