"""End-to-end batch run: ingest -> extract -> rules -> reports.

A mock run is CPU work: whole applications go to one forked worker process
per usable CPU, a bounded window of them ahead of the one being folded. A
run on a backend that waits keeps a bounded window of extraction calls in
flight on a thread pool, and an application's files are scanned only when
that window reaches it. Either way the results are folded, and the run's
own files written, in app-id order, so a run is byte-reproducible.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from contextlib import closing
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from urllib.parse import urlsplit

from .backends import MockBackend
from .base import CheckStatus, ConfigError, ReportKind, canonical_json_bytes, log_event
from .catalog import Catalog, load_catalog_file
from .extract import ExtractedDocument, extract, schema_for
from .ingest import (
    SUPPORTED_EXTENSIONS,
    ApplicationBundle,
    FileKind,
    LoadFailure,
    list_files,
    scan_application,
    scan_forms,
)
from .metrics import AppRecord, RunTotals, _write_totals
from .report import SCHEMA_VERSION, HtmlEscapes, render_html, report_dict
from .rules import EngineSettings, evaluate_application


def _is_http_url(url: str) -> bool:
    """An http(s) URL with a host and, if it names one, a valid port."""
    parsed = urlsplit(url)
    try:
        parsed.port  # raises ValueError on a port that is no number in range
    except ValueError:
        return False
    return parsed.scheme in ("http", "https") and bool(parsed.hostname)


@dataclass
class RunConfig:
    corpus_root: Path
    out_dir: Path
    backend: str = "mock"  # mock | remote
    endpoint: str | None = None
    api_key_env: str = "CLAIMCHECK_API_KEY"
    catalog_path: Path | None = None
    parallelism: int = 16  # extraction calls in flight
    fuzzy_threshold: float = 0.85
    amount_tolerance_cents: int = 0
    max_file_mb: float = 25.0
    allow_ext: dict[str, str] = field(default_factory=dict)
    timeout_s: float = 30.0
    retries: int = 3

    def validate(self) -> None:
        if self.backend not in ("mock", "remote"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "remote":
            if not self.endpoint:
                raise ConfigError("remote backend requires --endpoint")
            if not _is_http_url(self.endpoint):
                raise ConfigError(f"malformed endpoint URL: {self.endpoint!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not (0.0 <= self.fuzzy_threshold <= 1.0):
            raise ConfigError("fuzzy threshold must be in [0, 1]")
        # a negative tolerance, a cap of no bytes or a timeout of no time
        # would send checks to a human, or fail documents, without a word
        if self.amount_tolerance_cents < 0:
            raise ConfigError("amount tolerance must be >= 0 cents")
        if not (0.0 < self.max_file_mb < math.inf):
            raise ConfigError("max file size must be a number of MB above 0")
        if not (0.0 < self.timeout_s < math.inf):
            raise ConfigError("timeout must be a number of seconds above 0")
        kinds = {k.value for k in FileKind}
        for ext, kind in self.allow_ext.items():
            if kind not in kinds:
                raise ConfigError(f"--allow-ext {ext.lstrip('.')}={kind}: the kind must be one of "
                                  f"{', '.join(sorted(kinds))}")

    def public_dict(self) -> dict:
        data = asdict(self)
        data["corpus_root"] = str(self.corpus_root)
        data["out_dir"] = str(self.out_dir)
        data["catalog_path"] = str(self.catalog_path) if self.catalog_path else None
        return data


def make_backend(config: RunConfig):
    if config.backend == "mock":
        return MockBackend()
    from .remote import RemoteBackend, RemoteConfig  # only a remote run needs it

    return RemoteBackend(RemoteConfig(
        endpoint=config.endpoint,
        api_key=os.environ.get(config.api_key_env),
        timeout_s=config.timeout_s,
        retries=config.retries,
    ))


@dataclass
class VerifyResult:
    exit_code: int
    manifest: dict


# the stages of an application's work whose CPU seconds run_complete logs
STAGES = ("scan", "extract", "rules", "render", "write")


class _Applications:
    """The work on applications in one process: walk and expand each,
    extract its documents on this runner's own backend, evaluate it and
    write its directory, counting the CPU seconds of each stage on the
    thread that ran it. With ``inflight`` above 1, extraction calls run on
    that many threads, started up to ``2 * inflight`` documents ahead of
    the application being finished; at 1, each runs when its application
    is finished. The escape of each string that recurs across applications
    is kept for every application it renders."""

    def __init__(self, config: RunConfig, catalog: Catalog, inflight: int = 1):
        self.config, self.catalog = config, catalog
        self.out_dir = Path(config.out_dir)
        self.settings = EngineSettings(fuzzy_threshold=config.fuzzy_threshold,
                                       amount_tolerance_cents=config.amount_tolerance_cents)
        # each suffix's FileKind member, looked up by the scan of every file
        self.extensions = {**SUPPORTED_EXTENSIONS,
                           **{ext: FileKind(kind) for ext, kind in config.allow_ext.items()}}
        self.escapes = HtmlEscapes(catalog.escaped_texts())
        self.cpu = dict.fromkeys(STAGES, 0.0)
        self._lock = threading.Lock()  # extraction threads count too
        self.backend = make_backend(config)
        self._threads = ThreadPoolExecutor(inflight) if inflight > 1 else None
        self._window = 2 * inflight

    def close(self) -> None:
        # the threads finish before the backend's connections close
        if self._threads is not None:
            self._threads.shutdown()
        self.backend.close()

    def spent(self, stage: str, start: float) -> float:
        now = time.thread_time()
        with self._lock:
            self.cpu[stage] += now - start
        return now

    def results(self, apps):
        """The result of each application of ``apps``, in order (see
        ``finish``). An application is loaded, and its extraction calls
        started, only once fewer than the window's documents of later
        applications are ahead of the one being finished."""
        ahead: deque[tuple[tuple[str, Path], ApplicationBundle | Exception, list]] = deque()
        for app in apps:
            try:
                bundle = self.load(app)
            except Exception as exc:  # noqa: BLE001 (raised again by finish)
                ahead.append((app, exc, []))
            else:
                ahead.append((app, bundle, [self.call(ref, schema_for(ref.slot, bundle.typology))
                                            for ref in bundle.documents]))
            while sum(len(calls) for *_, calls in ahead) - len(ahead[0][2]) >= self._window:
                yield self.finish(*ahead.popleft())
        for loaded in ahead:
            yield self.finish(*loaded)

    def load(self, app: tuple[str, Path]) -> ApplicationBundle:
        # the scan expands each archive and gives every document its slot
        start = time.thread_time()
        bundle = scan_application(*app, self.config.max_file_mb, self.extensions)
        self.spent("scan", start)
        return bundle

    def call(self, ref, schema):
        """The call that returns the document ``ref`` extracted: started on a
        thread now, or deferred until ``finish`` makes it."""
        if self._threads is None:
            return partial(extract, ref, schema, self.backend)
        return self._threads.submit(self.extract_on_thread, ref, schema).result

    def extract_on_thread(self, ref, schema) -> ExtractedDocument:
        """``extract``, counting its CPU seconds, which ``finish`` does not
        see when the call runs on a thread of its own."""
        start = time.thread_time()
        extracted = extract(ref, schema, self.backend)
        self.spent("extract", start)
        return extracted

    def finish(self, app: tuple[str, Path], bundle: ApplicationBundle | Exception,
               calls: list) -> tuple:
        """``(app, record, error, visited, notices, cpu)``: the AppRecord or,
        when the application failed, None and why; the corpus names of its
        files and notices; the CPU seconds of each stage since the previous
        result. The bundle's archives are closed on return."""
        # one crashing application must never abort the batch
        try:
            if isinstance(bundle, Exception):
                raise bundle
            with bundle.archives:
                # the calls run here, or wait here for a thread that runs them
                start = time.thread_time()
                extracted = [call() for call in calls]
                self.spent("extract", start)
                record = self.process(bundle, extracted)
            outcome = (record, None, bundle.files, [n.path for n in bundle.unsupported])
        except Exception as exc:  # noqa: BLE001
            outcome = (None, str(exc), [], [])
        with self._lock:
            cpu, self.cpu = self.cpu, dict.fromkeys(STAGES, 0.0)
        return (app, *outcome, cpu)

    def process(self, bundle: ApplicationBundle, extracted: list[ExtractedDocument]) -> AppRecord:
        spent = self.spent
        start = time.thread_time()
        outcomes_by_kind = evaluate_application(bundle, extracted,
                                                self.catalog.for_typology(bundle.typology),
                                                self.settings)
        start = spent("rules", start)

        app_out = self.out_dir / bundle.app_id
        app_out.mkdir(parents=True, exist_ok=True)
        prefix = f"{app_out}{os.sep}"
        start = spent("write", start)
        # a run folds no labels, so its record keeps only each outcome's status,
        # which also keeps the result a worker hands back small
        statuses: list[dict] = []
        for kind in ReportKind:
            data = report_dict(bundle.app_id, kind, outcomes_by_kind[kind], bundle.unsupported,
                               self.catalog.version)
            json_bytes, html_bytes = canonical_json_bytes(data), render_html(data, self.escapes)
            start = spent("render", start)
            _write_file(f"{prefix}{kind.value}.json", json_bytes)
            _write_file(f"{prefix}{kind.value}.html", html_bytes)
            start = spent("write", start)
            statuses.extend(_STATUS_RECORDS[outcome["status"]] for outcome in data["outcomes"])

        metas = [
            {"path": doc.doc.display_path, "slot": doc.doc.slot.value,
             "cost_eur": doc.meta.cost_eur, "elapsed_ms": doc.meta.elapsed_ms}
            for doc in extracted
        ]
        extraction_bytes = canonical_json_bytes({
            "schema_version": SCHEMA_VERSION,
            "app_id": bundle.app_id,
            "typology": str(bundle.typology),
            "docs": metas,
        })
        start = spent("render", start)
        _write_file(f"{prefix}extraction.json", extraction_bytes)
        spent("write", start)
        return AppRecord(app_id=bundle.app_id, typology=str(bundle.typology),
                         outcomes=statuses, metas=metas)


# A task hands a worker this many applications. The pool's machinery costs
# about a tenth of an application's CPU per task, so one application per
# task made a 1000-app run cost about a fifth more CPU than one process.
APPS_PER_TASK = 8
_worker: _Applications | None = None  # set in each worker process by _start_worker


def _start_worker(config: RunConfig, catalog: Catalog) -> None:
    global _worker
    _worker = _Applications(config, catalog)


def _verify_in_worker(apps: list[tuple[str, Path]]) -> list[tuple]:
    return list(_worker.results(apps))


def _forked(apps, pool: Executor, workers: int):
    """The result of each application of ``apps``, in order, from ``pool``'s
    worker processes, which take them APPS_PER_TASK at a time, with at most
    2 x ``workers`` tasks submitted beyond the one whose results are being
    yielded."""
    submitted: deque[Future] = deque()
    for start in range(0, len(apps), APPS_PER_TASK):
        submitted.append(pool.submit(_verify_in_worker, apps[start:start + APPS_PER_TASK]))
        if len(submitted) > 2 * workers:
            yield from submitted.popleft().result()
    for future in submitted:
        yield from future.result()


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` to the file at ``path``, created with mode 0o666 less
    the umask, or truncated: what ``Path.write_bytes`` does, with no Path
    and no buffered file object."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# The record of an outcome that a run keeps, one per status and shared by
# every outcome, so a worker's results pickle each once. Nothing writes to them.
_STATUS_RECORDS = {status.value: {"status": status.value} for status in CheckStatus}


def build_manifest(config: RunConfig, catalog: Catalog, totals: RunTotals,
                   failures: list[LoadFailure], files: dict[str, list],
                   notices: int) -> dict:
    """Run manifest: config, catalog version, counts, and every corpus
    file the scan visited in exactly one of processed/unsupported/failed.

    ``files`` holds the corpus names the run filed under each of those
    three, and under ``members`` the archive-member notice paths,
    which name no file on disk; ``notices`` counts the notices of processed
    applications. It reads nothing from the file system. Files are listed
    in the order of ``sorted(Path)``, which compares path parts, not
    strings: ``a/x`` comes before ``a-b/x``, so the sort key maps each
    separator to a character below any other in a name.
    """
    listed = {bucket: sorted(files[bucket], key=lambda rel: rel.replace("/", "\0"))
              for bucket in ("processed", "unsupported", "failed")}
    # archive members only exist virtually; their notices follow the files
    listed["unsupported"].extend(sorted(files["members"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.public_dict(),
        "catalog_version": catalog.version,
        "counts": {
            **totals.counts(),
            "applications_failed": len(failures),
            "unsupported_notices": notices,
        },
        "failures": [{"app_id": f.app_id, "path": f.path, "reason": f.reason} for f in failures],
        "files": listed,
    }


def verify_corpus(config: RunConfig) -> VerifyResult:
    config.validate()
    catalog = load_catalog_file(config.catalog_path)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.thread_time()
    forms = scan_forms(Path(config.corpus_root), config.max_file_mb)
    stage_cpu = dict.fromkeys(STAGES, 0.0)
    stage_cpu["scan"] = time.thread_time() - start
    for name in forms.skipped_links:
        log_event("entry_skipped", path=name, reason="symlinked directory not followed")
    for failure in forms.failures:
        log_event("app_load_failed", app_id=failure.app_id, reason=failure.reason)

    # each application's files are filed once its fate is known
    totals = RunTotals()
    failures = list(forms.failures)
    files = {"processed": list(forms.loose_files), "unsupported": [], "failed": [],
             "members": []}
    notices = 0
    # The mock backend only reads a local sidecar, so a mock run is CPU work:
    # it takes whole applications to one worker process per usable CPU, up
    # to --parallelism. A run that waits on a remote backend keeps
    # --parallelism extraction calls in flight from this process.
    tasks = -(-len(forms.applications) // APPS_PER_TASK)
    workers = (min(config.parallelism, len(os.sched_getaffinity(0)), tasks)
               if config.backend == "mock" else 1)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=(config, catalog))
        results = _forked(forms.applications, pool, workers)
    else:
        inflight = 1 if config.backend == "mock" else config.parallelism
        runner = _Applications(config, catalog, inflight)
        pool, results = closing(runner), runner.results(forms.applications)
    manual = CheckStatus.MANUAL_CHECK.value
    # the worker processes, or the runner's threads and backend, end also
    # when the fold raises
    with pool:
        for (app_id, app_dir), record, error, visited, app_notices, cpu in results:
            for stage, seconds in cpu.items():
                stage_cpu[stage] += seconds
            if record is None:
                log_event("app_processing_failed", app_id=app_id, error=error)
                failures.append(LoadFailure(app_id=app_id, path=app_dir.name,
                                            reason=f"processing failed: {error}",
                                            files=list_files(app_dir)))
                continue
            totals.add(record)
            log_event("app_processed", app_id=app_id, checks=len(record.outcomes),
                      manual_checks=sum(o["status"] == manual for o in record.outcomes),
                      unsupported_files=len(app_notices))
            shown = set(app_notices)
            for path in visited:
                files["unsupported" if path in shown else "processed"].append(path)
            files["members"].extend(shown.difference(visited))
            notices += len(app_notices)
    for failure in failures:
        files["failed"].extend(failure.files)

    _write_totals(out_dir, totals)
    manifest = build_manifest(config, catalog, totals, failures, files, notices)
    (out_dir / "manifest.json").write_bytes(canonical_json_bytes(manifest))

    exit_code = 2 if failures else 0
    # per-stage CPU is wall-clock-like data, so it goes to the log only
    log_event("run_complete", applications=totals.total.applications,
              failures=len(failures), exit_code=exit_code, workers=workers,
              stage_cpu_s={stage: round(seconds, 3) for stage, seconds in stage_cpu.items()})
    return VerifyResult(exit_code=exit_code, manifest=manifest)
