import base64
import gc
import html
import io
import json
import math
import os
import re
import shutil
import sys
import threading
import time
import warnings
import zipfile
from pathlib import Path

import pytest

from claimcheck import ingest, pipeline
from claimcheck import report as report_module
from claimcheck.backends import MockBackend, RemoteBackend
from claimcheck.cli import main
from claimcheck.gencorpus import GenOptions, write_corpus
from claimcheck.pipeline import ConfigError, RunConfig, verify_corpus
from claimcheck.report import canonical_json_bytes, render_html, report_dict
from claimcheck.rules import CheckStatus, ReportKind
from claimcheck.stubserver import FixtureStubServer, embedded_relpath


def zip_app_photos(app_dir: Path) -> None:
    """Repackage an app's photos (and their fixture sidecars) into a ZIP,
    the way applicants bundle uploads."""
    photos = sorted(app_dir.glob("foto_*.png"))
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for photo in photos:
            archive.writestr(photo.name, photo.read_bytes())
            sidecar = Path(str(photo) + ".fields.json")
            if sidecar.is_file():
                archive.writestr(sidecar.name, sidecar.read_bytes())
                sidecar.unlink()
            photo.unlink()
    (app_dir / "fotos.zip").write_bytes(buffer.getvalue())


def app_metas(out: Path, app_id: str) -> list[dict]:
    """The per-document metas verify wrote to an application's extraction.json."""
    return json.loads((out / app_id / "extraction.json").read_text())["docs"]


def test_verify_with_zipped_photos(corpus_copy, tmp_path):
    app_dirs = sorted(p for p in corpus_copy.iterdir() if p.is_dir())
    zip_app_photos(app_dirs[0])
    out = tmp_path / "out"
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out, parallelism=2))
    assert result.exit_code == 0
    metas = app_metas(out, app_dirs[0].name)
    # photo members re-enter through archive expansion with their metas
    assert len(metas) == 11
    photo_metas = [m for m in metas if m["slot"] == "photo"]
    assert photo_metas and all("!" in m["path"] or "fotos" in m["path"]
                               for m in photo_metas)

    # the zipped app still evaluates identically to its unzipped twin
    per_app = json.loads((out / app_dirs[0].name / "eligibility.json").read_text())
    assert per_app["outcomes"]


def test_verify_zip_costs_preserved(corpus_copy, tmp_path):
    baseline_out = tmp_path / "baseline"
    verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=baseline_out))
    app_id = sorted(p.name for p in corpus_copy.iterdir() if p.is_dir())[0]
    baseline_cost = sum(m["cost_eur"] for m in app_metas(baseline_out, app_id))

    zip_app_photos(corpus_copy / app_id)
    verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=tmp_path / "rerun"))
    assert sum(m["cost_eur"] for m in app_metas(tmp_path / "rerun", app_id)) == baseline_cost


def test_allow_ext_extends_supported_set(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    photo = sorted(app_dir.glob("foto_*.png"))[0]
    renamed = photo.with_suffix(".webp")
    photo.rename(renamed)
    sidecar = Path(str(photo) + ".fields.json")
    if sidecar.is_file():
        sidecar.rename(Path(str(renamed) + ".fields.json"))

    out_strict = tmp_path / "strict"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out_strict)]) == 0
    manifest = json.loads((out_strict / "manifest.json").read_text())
    assert manifest["counts"]["unsupported_notices"] == 1

    out_relaxed = tmp_path / "relaxed"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out_relaxed),
                 "--allow-ext", "webp=png"]) == 0
    manifest = json.loads((out_relaxed / "manifest.json").read_text())
    assert manifest["counts"]["unsupported_notices"] == 0


def test_allow_ext_kind_must_be_a_file_kind(corpus_copy, tmp_path, capsys):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    (app_dir / "foto_09.webp").write_bytes(b"w")
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out),
                 "--allow-ext", "webp=gif"]) == 1
    assert "webp=gif" in capsys.readouterr().err
    assert not out.exists()  # refused before anything was processed
    with pytest.raises(ConfigError, match="pdf, png, zip"):
        RunConfig(corpus_root=corpus_copy, out_dir=out, allow_ext={".webp": "jpeg"}).validate()


def test_allow_ext_covers_archive_members(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    photo = sorted(app_dir.glob("foto_*.png"))[0]
    sidecar = Path(str(photo) + ".fields.json")
    loose = {"foto_09.webp": photo.read_bytes(), "foto_09.webp.fields.json": sidecar.read_bytes()}
    photo.unlink()
    sidecar.unlink()
    for name, data in loose.items():
        (app_dir / name).write_bytes(data)
    outputs = {}
    for layout in ("loose", "zipped"):
        if layout == "zipped":
            for name in loose:
                (app_dir / name).unlink()
            (app_dir / "anexos.zip").write_bytes(zip_members(loose))
        out = tmp_path / layout
        assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out),
                     "--allow-ext", "webp=png"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["unsupported_notices"] == 0
        report = json.loads((out / app_dir.name / "typology.json").read_text())
        outputs[layout] = [(o["check_id"], o["status"]) for o in report["outcomes"]]
    member = [m for m in app_metas(tmp_path / "zipped", app_dir.name) if "webp" in m["path"]]
    assert [m["path"] for m in member] == [f"{app_dir.name}/anexos.zip!foto_09.webp"]
    assert outputs["zipped"] == outputs["loose"]


def test_metrics_from_disk_match_live_run(corpus_copy, tmp_path):
    out = tmp_path / "out"
    verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out))
    live = {name: (out / name).read_bytes() for name in ("metrics.json", "cost_time.csv")}
    assert main(["metrics", "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in live} == live

    labels = corpus_copy / "labels.csv"
    assert main(["metrics", "--out", str(out), "--labels", str(labels)]) == 0
    assert (out / "cost_time.csv").read_bytes() == live["cost_time.csv"]
    labelled = json.loads((out / "metrics.json").read_text())
    taxonomy = labelled.pop("taxonomy")
    assert labelled == json.loads(live["metrics.json"])
    assert taxonomy["labeled_total"] == len(labels.read_text().splitlines()) - 1
    assert taxonomy["false_positive"] == 0


def test_metrics_folds_each_application_directory_with_extraction_json(tmp_path):
    """A hand-built output directory: an application directory with no
    extraction.json is skipped, one missing a report still folds the
    others, and loose files at the top level are ignored."""
    out = tmp_path / "out"

    def write(rel: str, payload: dict) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")

    def outcomes(*statuses: str) -> dict:
        state = {"state": "present"}
        return {"outcomes": [{"check_id": f"c{i}", "status": status, "lhs": state, "rhs": state}
                             for i, status in enumerate(statuses)]}

    def extraction(app_id: str, typology: str, cost: float) -> dict:
        return {"app_id": app_id, "typology": typology,
                "docs": [{"path": f"{app_id}/fatura.pdf", "slot": "invoice",
                          "cost_eur": cost, "elapsed_ms": 2000}]}

    write("app_a/extraction.json", extraction("app_a", "1", 0.5))
    write("app_a/eligibility.json", outcomes("auto_verified", "manual_check"))
    write("app_a/common_core.json", outcomes("auto_verified"))
    write("app_a/typology.json", outcomes("unsupported"))
    write("app_b/eligibility.json", outcomes("manual_check"))  # no extraction.json
    write("app_c/extraction.json", extraction("app_c", "4", 0.25))
    write("app_c/eligibility.json", outcomes("auto_verified"))
    write("app_c/typology.json", outcomes("manual_check", "manual_check"))  # no common_core
    write("manifest.json", {"counts": {"applications_processed": 3}})
    (out / "stray.txt").write_text("not an application\n")

    assert main(["metrics", "--out", str(out)]) == 0
    summary = json.loads((out / "metrics.json").read_text())
    assert summary["total"]["applications"] == 2
    assert summary["total"]["status_counts"] == {"auto_verified": 3, "manual_check": 3,
                                                 "unsupported": 1}
    assert summary["total"]["cost_eur"]["total"] == 0.75
    assert {tid: block["checks_total"] for tid, block in summary["per_typology"].items()} \
        == {"1": 4, "4": 3}
    assert (out / "cost_time.csv").read_text().splitlines()[-1] == "Total,0.38,2.00"


@pytest.mark.parametrize("case", ["garbage", "oversize", "oversize zipped"])
def test_unreadable_sidecar_contained_as_backend_error(corpus_copy, tmp_path, case):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    sidecar = app_dir / "fatura.pdf.fields.json"
    if case == "garbage":
        sidecar.write_text("{ not json")
    else:
        # the fixture is whole and well formed, but longer than the 1 MB cap
        fields = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**fields, "__pad__": "x" * 2_000_000}))
    if case == "oversize zipped":
        invoice = app_dir / "fatura.pdf"
        (app_dir / "faturas.zip").write_bytes(zip_members(
            {invoice.name: invoice.read_bytes(), sidecar.name: sidecar.read_bytes()},
            zipfile.ZIP_DEFLATED))
        invoice.unlink()
        sidecar.unlink()
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out),
                 "--max-file-mb", "1"]) == 0  # contained: unreadable values, app processed
    sides = [side for kind in ReportKind
             for o in json.loads((out / app_dir.name / f"{kind.value}.json").read_text())[
                 "outcomes"]
             for side in (o["lhs"], o["rhs"])]
    invoice_sides = [side for side in sides if side["source"].startswith("invoice:")]
    assert invoice_sides
    assert {(side["state"], side["detail"]) for side in invoice_sides} == {
        ("unreadable", "unreadable value (backend_error)")}
    # only that document's tags are unreadable
    assert any(side["state"] == "present" for side in sides
               if side["source"].split(":")[0] not in ("invoice", "form"))
    report = json.loads((out / app_dir.name / "common_core.json").read_text())
    [invoice_outcome] = [o for o in report["outcomes"]
                         if o["check_id"] == "common.declared_expense_matches_invoice"]
    assert invoice_outcome["status"] == "manual_check"


def test_app_level_crash_contained(corpus_copy, tmp_path):
    out = tmp_path / "out"
    app_dirs = sorted(p.name for p in corpus_copy.iterdir() if p.is_dir())
    # writing eligibility.json into this app dir will crash its worker
    (out / app_dirs[0] / "eligibility.json").mkdir(parents=True)
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out, parallelism=2))
    assert result.exit_code == 2
    assert result.manifest["counts"]["applications_processed"] == len(app_dirs) - 1
    failed = [f for f in result.manifest["failures"] if f["app_id"] == app_dirs[0]]
    assert failed and "processing failed" in failed[0]["reason"]


def test_oversize_flag_routes_through_cli(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    big = app_dir / "foto_big.png"
    big.write_bytes(b"p" * 1_200_000)
    # the same cap, and the same words, for a member of a ZIP archive
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("foto_grande.png", b"p" * 1_300_000)
    (app_dir / "anexos.zip").write_bytes(buffer.getvalue())
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out),
                 "--max-file-mb", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["unsupported_notices"] == 2
    rel = str(big.relative_to(corpus_copy))
    assert rel in manifest["files"]["unsupported"]
    assert f"{app_dir.name}/anexos.zip!foto_grande.png" in manifest["files"]["unsupported"]
    report = json.loads((out / app_dir.name / "eligibility.json").read_text())
    assert [(n["reason"], n["message"]) for n in report["unsupported"]] == [
        ("oversize", "foto_big.png is 1.2 MB, above the 1 MB cap"),
        ("oversize", "foto_grande.png is 1.3 MB, above the 1 MB cap")]


class _CountingStub(FixtureStubServer):
    """Fixture stub that answers each request after 20 ms and records the
    peak number of requests in flight."""

    def __init__(self, corpus_root: Path):
        super().__init__(corpus_root)
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0

    def _answer(self, request: dict) -> dict:
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        try:
            time.sleep(0.02)
            return super()._answer(request)
        finally:
            with self._lock:
                self._inflight -= 1


def output_tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("parallelism", [1, 4])
def test_parallelism_bounds_extraction_calls_in_flight(small_corpus, tmp_path, parallelism):
    verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=tmp_path / "mock"))
    with _CountingStub(small_corpus) as stub:
        result = verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=tmp_path / "remote",
                                         backend="remote", endpoint=stub.url,
                                         parallelism=parallelism))
    assert result.exit_code == 0
    assert stub.peak == parallelism
    assert output_tree(tmp_path / "remote") == output_tree(tmp_path / "mock")


@pytest.mark.parametrize("backend", [MockBackend, RemoteBackend])
def test_crashing_fetch_fails_only_its_app(small_corpus, tmp_path, monkeypatch, backend):
    app_ids = sorted(p.name for p in small_corpus.iterdir() if p.is_dir())
    victim = app_ids[3]
    real_fetch = backend.fetch

    def fetch(self, doc, schema):
        if Path(doc.path).parent.name == victim and Path(doc.path).name == "fatura.pdf":
            raise RuntimeError("extraction worker crashed")
        return real_fetch(self, doc, schema)

    monkeypatch.setattr(backend, "fetch", fetch)
    out = tmp_path / "out"
    with _CountingStub(small_corpus) as stub:
        result = verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=out,
                                         backend=backend.backend_id, endpoint=stub.url,
                                         parallelism=4))
    assert result.exit_code == 2
    failures = result.manifest["failures"]
    assert [f["app_id"] for f in failures] == [victim]
    assert "processing failed" in failures[0]["reason"]
    assert result.manifest["counts"]["applications_processed"] == len(app_ids) - 1
    assert sorted(p.parent.name for p in out.glob("*/extraction.json")) == \
        [a for a in app_ids if a != victim]
    assert all((out / a / "eligibility.json").is_file() for a in app_ids if a != victim)


@pytest.mark.parametrize("protocol", ["HTTP/1.0", "HTTP/1.1"])
def test_remote_verify_leaves_no_socket_open(small_corpus, tmp_path, monkeypatch, protocol):
    # a socket collected while still open warns from its finalizer, which
    # reaches sys.unraisablehook, not the caller
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with FixtureStubServer(small_corpus) as stub, warnings.catch_warnings():
        stub._server.RequestHandlerClass.protocol_version = protocol  # 1.1 keeps alive
        warnings.simplefilter("error", ResourceWarning)
        code = main(["verify", "--corpus", str(small_corpus), "--out", str(tmp_path / "out"),
                     "--backend", "remote", "--endpoint", stub.url, "--parallelism", "4"])
        gc.collect()
    assert code == 0
    assert [repr(u.exc_value) for u in unraisable] == []


def rewalked_files(root: Path, out: Path, manifest: dict) -> dict[str, list[str]]:
    """File accounting by a second walk of the corpus with ``rglob`` and
    ``resolve``, the way the manifest was once built: the oracle for the
    manifest's ``files`` block on corpora without symlinks. The failed
    applications come from the manifest's ``failures``, the unsupported-file
    notices from the reports."""
    def relpath(path) -> str:
        try:
            return str(Path(path).resolve().relative_to(root.resolve()))
        except ValueError:
            return str(path)

    failed_dirs = {(root / f["path"]).resolve() for f in manifest["failures"] if f["path"]}
    unsupported_paths = {n["path"] for report in out.glob("*/eligibility.json")
                         for n in json.loads(report.read_text())["unsupported"]}
    files = {"processed": [], "unsupported": [], "failed": []}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if any(parent in failed_dirs for parent in path.resolve().parents):
            files["failed"].append(relpath(path))
        elif relpath(path) in unsupported_paths:
            files["unsupported"].append(relpath(path))
        else:
            files["processed"].append(relpath(path))
    files["unsupported"].extend(relpath(p) for p in sorted(p for p in unsupported_paths if "!" in p))
    return files


def zip_members(members: dict[str, bytes], compression: int = zipfile.ZIP_STORED) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


def test_manifest_files_match_a_corpus_rewalk(corpus_copy, tmp_path, monkeypatch):
    apps = sorted(p for p in corpus_copy.iterdir() if p.is_dir())
    (apps[1] / "form.xml").write_text("<broken")
    (apps[1] / "extra").mkdir()
    (apps[1] / "extra" / "scan.pdf").write_bytes(b"x")
    fotos = apps[2] / "fotos"
    fotos.mkdir()
    for photo in sorted(apps[2].glob("foto_*")):
        photo.rename(fotos / photo.name)
    photo = sorted(apps[3].glob("foto_*.png"))[0]
    photo.rename(photo.with_suffix(".docx"))
    (apps[3] / "notas" / "rascunho").mkdir(parents=True)
    (apps[3] / "notas" / "rascunho" / "leia-me.txt").write_text("n")
    members = {p.name: p.read_bytes() for p in sorted(apps[4].glob("foto_*"))}
    for name in members:
        (apps[4] / name).unlink()
    members["leia-me.docx"] = b"d"
    members["notas/./leia.docx"] = b"d"  # listed as the reports quote it
    members["interior.zip"] = zip_members({"foto_9.png": b"p"})
    (apps[4] / "fotos.zip").write_bytes(zip_members(members))
    (corpus_copy / f"{apps[5].name}.txt").write_text("stray")
    zip_app_photos(apps[6])
    with zipfile.ZipFile(apps[6] / "fotos.zip", "a") as archive:
        archive.writestr("notas.docx", b"d")
    real_fetch = MockBackend.fetch

    def fetch(self, doc, schema):
        if Path(doc.path).parent == apps[6] and Path(doc.path).name == "fatura.pdf":
            raise RuntimeError("extraction worker crashed")
        return real_fetch(self, doc, schema)

    monkeypatch.setattr(MockBackend, "fetch", fetch)
    out = tmp_path / "out"
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out))
    assert [f["app_id"] for f in result.manifest["failures"]] == [apps[1].name, apps[6].name]

    files = result.manifest["files"]
    assert files == rewalked_files(corpus_copy, out, result.manifest)
    # every case above is exercised
    assert f"{apps[1].name}/extra/scan.pdf" in files["failed"]
    assert f"{apps[6].name}/fatura.pdf" in files["failed"]
    assert f"{apps[6].name}/fotos.zip" in files["failed"]
    # a failed application's notices are neither listed nor counted
    reported = sum(len(json.loads(r.read_text())["unsupported"])
                   for r in out.glob("*/eligibility.json"))
    assert result.manifest["counts"]["unsupported_notices"] == reported
    assert f"{apps[2].name}/fotos/foto_01.png" in files["processed"]
    assert {f"{apps[4].name}/fotos.zip!leia-me.docx", f"{apps[4].name}/fotos.zip!interior.zip",
            f"{apps[4].name}/fotos.zip!notas/./leia.docx"} <= set(files["unsupported"])
    assert f"{apps[3].name}/notas/rascunho/leia-me.txt" in files["unsupported"]
    processed = files["processed"]
    assert {"labels.csv", "corpus_manifest.json"} <= set(processed)
    assert (processed.index(f"{apps[5].name}/form.xml")
            < processed.index(f"{apps[5].name}.txt")
            < processed.index(f"{apps[7].name}/form.xml"))


def test_symlinked_file_is_listed_relative_to_the_corpus(corpus_copy, tmp_path):
    outside = tmp_path / "outside"
    (outside / "fotos").mkdir(parents=True)
    (outside / "anexo.docx").write_bytes(b"d")
    (outside / "fotos" / "foto_9.png").write_bytes(b"p")
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    (app_dir / "anexo.docx").symlink_to(outside / "anexo.docx")
    (app_dir / "fotos").symlink_to(outside / "fotos", target_is_directory=True)
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=tmp_path / "out"))
    files = result.manifest["files"]
    assert files["unsupported"] == [f"{app_dir.name}/anexo.docx"]
    # a symlinked directory is not followed, as Path.rglob does not
    listed = [f for bucket in files.values() for f in bucket]
    assert not any("foto_9" in f or f.startswith("/") for f in listed)


def test_manifest_lists_files_in_path_part_order(small_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    # sorted(Path) compares parts, so a/x precedes a-b/x; string order is the reverse
    for app_dir, name in zip(sorted(p for p in small_corpus.iterdir() if p.is_dir()),
                             ("a-b", "a")):
        shutil.copytree(app_dir, corpus / name)
    result = verify_corpus(RunConfig(corpus_root=corpus, out_dir=tmp_path / "out"))
    processed = result.manifest["files"]["processed"]
    assert processed == [str(p.relative_to(corpus))
                         for p in sorted(p for p in corpus.rglob("*") if p.is_file())]
    assert processed[0].startswith("a/") and processed != sorted(processed)


@pytest.mark.parametrize("change", ["vanished", "unparseable", "renamed", "removed"])
def test_form_changed_after_the_first_scan_phase_fails_only_its_application(
        corpus_copy, tmp_path, monkeypatch, change):
    apps = sorted(p for p in corpus_copy.iterdir() if p.is_dir())
    victim = apps[3]
    verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=tmp_path / "clean"))
    real_scan = pipeline.scan_application

    def scan_after_a_change(app_id, app_dir, *args):
        form = app_dir / "form.xml"
        if app_dir == victim and change == "vanished":
            form.unlink()
        elif app_dir == victim and change == "removed":
            shutil.rmtree(app_dir)
        elif app_dir == victim and change == "unparseable":
            form.write_text("<broken")
        elif app_dir == victim:
            form.write_text(form.read_text().replace(f'id="{app_id}"', 'id="app_other"'))
        return real_scan(app_id, app_dir, *args)

    monkeypatch.setattr(pipeline, "scan_application", scan_after_a_change)
    out = tmp_path / "out"
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out))
    assert result.exit_code == 2
    [failure] = result.manifest["failures"]
    assert (failure["app_id"], failure["path"]) == (victim.name, victim.name)
    assert failure["reason"].startswith("processing failed")
    assert result.manifest["counts"]["applications_processed"] == len(apps) - 1
    files = result.manifest["files"]
    assert files["failed"] == [str(p.relative_to(corpus_copy))
                               for p in sorted(victim.rglob("*")) if p.is_file()]
    assert files == rewalked_files(corpus_copy, out, result.manifest)
    # every other application's outputs are those of a run without the change
    assert {k: v for k, v in output_tree(out).items() if "/" in k} == \
        {k: v for k, v in output_tree(tmp_path / "clean").items()
         if "/" in k and not k.startswith(f"{victim.name}/")}


def test_each_application_is_scanned_only_when_the_extraction_window_reaches_it(
        small_corpus, tmp_path, monkeypatch):
    events = []
    real_scan = ingest.scan_application
    real_write = pipeline._write_file

    def scan(*args, **kwargs):
        events.append(("scanned", next(a.name for a in args if isinstance(a, Path))))
        return real_scan(*args, **kwargs)

    def write_file(path, data):
        if Path(path).name == "extraction.json":
            events.append(("written", Path(path).parent.name))
        return real_write(path, data)

    for owner in (ingest, pipeline):
        monkeypatch.setattr(owner, "scan_application", scan, raising=False)
    monkeypatch.setattr(pipeline, "_write_file", write_file)
    # in one process the mock backend runs one extraction at a time, two
    # documents ahead
    result = verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=tmp_path / "out",
                                     parallelism=1))
    assert result.exit_code == 0
    app_ids = sorted(p.name for p in small_corpus.iterdir() if p.is_dir())
    assert [app for what, app in events if what == "scanned"] == app_ids
    for k, app_id in enumerate(app_ids[:-2]):
        assert events.index(("scanned", app_ids[k + 2])) > events.index(("written", app_id))


def test_build_manifest_reads_no_file_system(corpus_copy, tmp_path, monkeypatch):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    (app_dir / "form.xml").write_text("<broken")
    real_build = pipeline.build_manifest
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("build_manifest touched the file system")

    def build_refusing_file_system(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            for owner, name in ((Path, "rglob"), (Path, "glob"), (Path, "iterdir"),
                                (Path, "resolve"), (Path, "stat"), (os, "scandir"),
                                (os, "walk"), (os, "listdir"), (os, "stat")):
                patch.setattr(owner, name, refuse)
            built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_manifest", build_refusing_file_system)
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=tmp_path / "out"))
    assert built == [result.manifest]
    assert result.manifest["files"]["failed"]


def test_each_report_dict_is_built_once(small_corpus, tmp_path, monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return report_dict(*args)

    monkeypatch.setattr(pipeline, "report_dict", counted)
    monkeypatch.setattr(report_module, "report_dict", counted)
    # in one process, where the calls can be counted
    result = verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=tmp_path / "out",
                                     parallelism=1))
    monkeypatch.undo()
    assert len(built) == 3 * result.manifest["counts"]["applications_processed"]
    for app_id, kind, *rest in built:
        path = tmp_path / "out" / app_id / f"{kind.value}.json"
        assert path.read_bytes() == canonical_json_bytes(report_dict(app_id, kind, *rest))


def test_each_html_report_is_rendered_from_its_json(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("notas.docx", b"notes")
    (app_dir / "anexos.zip").write_bytes(buffer.getvalue())
    out = tmp_path / "out"
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out))
    assert result.exit_code == 0
    reports = [p for p in sorted(out.glob("*/*.json")) if p.name != "extraction.json"]
    assert len(reports) == 3 * result.manifest["counts"]["applications_processed"] == 60
    notices = json.loads((out / app_dir.name / "typology.json").read_text())["unsupported"]
    assert [n["path"] for n in notices] == [f"{app_dir.name}/anexos.zip!notas.docx"]
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        assert render_html(report) == path.with_suffix(".html").read_bytes(), path


def break_photo(archive: Path, how: str, index: int = 0) -> None:
    """Rewrite ``archive`` deflated, with its ``index``-th photo member
    unreadable: flagged as encrypted, stored with an unsupported compression
    method, or with a corrupt deflate stream."""
    with zipfile.ZipFile(archive) as source:
        members = {info.filename: source.read(info) for info in source.infolist()}
    victim = sorted(name for name in members if not name.endswith(".fields.json"))[index]
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as target:
        for name, data in members.items():
            target.writestr(name, data)
        info = target.getinfo(victim)
        if how == "encrypted":
            info.flag_bits |= 0x1  # the central directory says encrypted
        elif how == "unsupported_method":
            info.compress_type = 1  # shrink, which zipfile cannot read
    data = bytearray(buffer.getvalue())
    if how == "corrupt_deflate":
        with zipfile.ZipFile(io.BytesIO(bytes(data))) as written:
            info = written.getinfo(victim)
        start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
        data[start] = 0xFF  # a deflate block of the reserved type
    archive.write_bytes(bytes(data))


@pytest.mark.parametrize("how", ["encrypted", "corrupt_deflate", "unsupported_method"])
def test_unreadable_archive_fails_only_its_application(tmp_path, how):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=3, consistency=0.76, seed=5))
    apps = sorted(p.name for p in corpus.iterdir() if p.is_dir())
    victim = apps[1]
    zip_app_photos(corpus / victim)
    assert main(["verify", "--corpus", str(corpus), "--out", str(tmp_path / "clean")]) == 0

    break_photo(corpus / victim / "fotos.zip", how)
    (corpus / victim / "notas.docx").write_bytes(b"d")
    out = tmp_path / "broken"
    assert main(["verify", "--corpus", str(corpus), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (out / "metrics.json").is_file()
    assert [f["app_id"] for f in manifest["failures"]] == [victim]
    assert manifest["failures"][0]["reason"].startswith("processing failed: ")
    victim_files = sorted(str(p.relative_to(corpus)) for p in (corpus / victim).rglob("*"))
    assert manifest["files"]["failed"] == victim_files
    # a failed application's notices are neither listed nor counted
    assert f"{victim}/notas.docx" in victim_files
    assert manifest["files"]["unsupported"] == []
    assert manifest["counts"]["unsupported_notices"] == 0
    for app in apps:
        if app != victim:
            assert output_tree(out / app) == output_tree(tmp_path / "clean" / app)


def test_member_failing_mid_archive_leaves_nothing_under_out(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=3, consistency=0.76, seed=5))
    victim = sorted(p for p in corpus.iterdir() if p.is_dir())[1]
    members = {}
    for photo in sorted(victim.glob("foto_*.png"))[:2]:
        for path in (photo, Path(f"{photo}.fields.json")):
            members[path.name] = path.read_bytes()
            path.unlink()
    (victim / "fotos.zip").write_bytes(zip_members(members))
    # the first photo reads to its end; the second starts with a reserved block type
    break_photo(victim / "fotos.zip", "corrupt_deflate", index=1)
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["app_id"] for f in manifest["failures"]] == [victim.name]
    assert manifest["files"]["failed"] == sorted(
        str(p.relative_to(corpus)) for p in victim.rglob("*"))
    written = [p.read_bytes() for p in out.rglob("*") if p.is_file()]
    for data in members.values():
        assert not any(data in output for output in written)


def test_each_archive_is_closed_once_its_application_is_done(tmp_path, monkeypatch,
                                                            opened_archives):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=4, consistency=0.76, seed=5))
    apps = sorted(p for p in corpus.iterdir() if p.is_dir())
    for app_dir in (apps[0], apps[2], apps[3]):
        zip_app_photos(app_dir)
    # the second archive of apps[3] raises NotImplementedError during expansion
    (apps[3] / "anexos.zip").write_bytes(zip_members({"foto_9.png": b"p"}))
    break_photo(apps[3] / "fotos.zip", "unsupported_method")

    def render(data):
        if data["app_id"] == apps[2].name:
            raise RuntimeError("render crashed")
        return render_html(data)

    open_when_done = {}
    real_log = pipeline.log_event

    def log_event(event, **fields):
        if event in ("app_processed", "app_processing_failed"):
            open_when_done[fields["app_id"]] = [
                a.filename for a in opened_archives
                if a.fp is not None and Path(a.filename).parent.name == fields["app_id"]]
        real_log(event, **fields)

    monkeypatch.setattr(pipeline, "render_html", render)
    monkeypatch.setattr(pipeline, "log_event", log_event)
    result = verify_corpus(RunConfig(corpus_root=corpus, out_dir=tmp_path / "out",
                                     parallelism=1))
    assert [f["app_id"] for f in result.manifest["failures"]] == [apps[2].name, apps[3].name]
    assert open_when_done == {app.name: [] for app in apps}
    assert [Path(a.filename).relative_to(corpus) for a in opened_archives] == [
        Path(apps[0].name, "fotos.zip"), Path(apps[2].name, "fotos.zip"),
        Path(apps[3].name, "anexos.zip"), Path(apps[3].name, "fotos.zip")]
    assert all(archive.fp is None for archive in opened_archives)


def test_extraction_threads_share_each_archive_handle(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=6, consistency=0.76, seed=5))
    for app_dir in sorted(p for p in corpus.iterdir() if p.is_dir()):
        zip_app_photos(app_dir)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, mid-read included
    try:
        with FixtureStubServer(corpus) as stub:
            for parallelism in ("16", "1"):
                assert main(["verify", "--corpus", str(corpus), "--out",
                             str(tmp_path / parallelism), "--backend", "remote",
                             "--endpoint", stub.url, "--parallelism", parallelism]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert output_tree(tmp_path / "16") == output_tree(tmp_path / "1")


DOCUMENTED_OUTPUT = re.compile(
    r"[^/]+/(eligibility|common_core|typology)\.(json|html)|[^/]+/extraction\.json"
    r"|metrics\.json|cost_time\.csv|manifest\.json")


def test_verify_writes_only_documented_outputs(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    (app_dir / "anexos.zip").write_bytes(zip_members({
        "../../fuga/recibo.pdf": b"up", "obra1/fatura.pdf": b"first",
        "obra2/fatura.pdf": b"second", "notas.docx": b"d",
        "interior.zip": zip_members({"foto_9.png": b"p"}),
    }))
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out)]) == 0
    assert len(app_metas(out, app_dir.name)) == 14  # 11 loose documents and 3 members
    for path in out.rglob("*"):
        rel = str(path.relative_to(out))
        if path.is_dir():
            assert (out / rel / "extraction.json").is_file(), rel
        else:
            assert DOCUMENTED_OUTPUT.fullmatch(rel), rel
    assert not (tmp_path / "fuga").exists()


forking = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                             reason="a mock run forks workers only with two usable CPUs")


def log_events(caplog, name: str) -> list[dict]:
    return [json.loads(r.getMessage()) for r in caplog.records if f'"{name}"' in r.getMessage()]


@forking
def test_forked_run_writes_what_a_run_in_one_process_writes(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=12, consistency=0.76, seed=11, unsupported_rate=0.2))
    apps = sorted(p for p in corpus.iterdir() if p.is_dir())
    for app_dir in apps[::3]:
        zip_app_photos(app_dir)
    (apps[4] / "anexos.zip").write_bytes(zip_members({"notas.docx": b"d", "foto_9.png": b"p"}))
    (apps[5] / "form.xml").write_text("<broken")  # fails the first scan phase
    runs = {}
    for parallelism in (16, 1):
        caplog.clear()
        with caplog.at_level("INFO", logger="claimcheck"):
            runs[parallelism] = verify_corpus(RunConfig(corpus_root=corpus,
                                                        out_dir=tmp_path / str(parallelism),
                                                        parallelism=parallelism))
        [done] = log_events(caplog, "run_complete")
        assert done["workers"] == min(parallelism, 2)
        assert set(done["stage_cpu_s"]) == {"scan", "extract", "rules", "render", "write"}
        assert done["stage_cpu_s"]["rules"] > 0
        # the folding process logs each application, in app-id order
        assert [e["app_id"] for e in log_events(caplog, "app_processed")] == \
            [a.name for a in apps if a != apps[5]]
    manifests = [{k: v for k, v in run.manifest.items() if k != "config"}
                 for run in runs.values()]
    assert manifests[0] == manifests[1]
    assert manifests[0]["counts"]["unsupported_notices"] > 0
    assert [f["app_id"] for f in manifests[0]["failures"]] == [apps[5].name]
    assert any("!" in path for path in manifests[0]["files"]["unsupported"])
    assert output_tree(tmp_path / "16") == output_tree(tmp_path / "1")
    assert not any(b"stage_cpu_s" in data for data in output_tree(tmp_path / "16").values())


@forking
def test_render_raising_in_a_worker_fails_only_its_application(small_corpus, tmp_path,
                                                               monkeypatch):
    victim = sorted(p.name for p in small_corpus.iterdir() if p.is_dir())[2]
    parent = os.getpid()

    def render_in_worker(data):
        if data["app_id"] == victim and os.getpid() != parent:
            raise RuntimeError("render crashed in a worker")
        return render_html(data)

    monkeypatch.setattr(pipeline, "render_html", render_in_worker)
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(small_corpus), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    [failure] = manifest["failures"]
    assert failure["app_id"] == victim
    assert failure["reason"] == "processing failed: render crashed in a worker"
    assert manifest["counts"]["applications_processed"] == 19
    assert sorted(p.parent.name for p in out.glob("*/extraction.json")) == \
        sorted(p.name for p in small_corpus.iterdir() if p.is_dir() and p.name != victim)


@forking
def test_forked_run_submits_at_most_two_tasks_per_worker_ahead(small_corpus, tmp_path,
                                                               monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    events = []
    real_submit, real_log = ProcessPoolExecutor.submit, pipeline.log_event

    def submit(self, fn, apps):
        events.extend(["submitted"] * len(apps))
        return real_submit(self, fn, apps)

    def log_event(event, **fields):
        if event == "app_processed":
            events.append("folded")
        real_log(event, **fields)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(pipeline, "log_event", log_event)
    monkeypatch.setattr(pipeline, "APPS_PER_TASK", 2)
    result = verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=tmp_path / "out",
                                     parallelism=2))
    assert result.exit_code == 0
    apps = result.manifest["counts"]["applications_processed"]
    ahead = [events[:i].count("submitted") for i, what in enumerate(events) if what == "folded"]
    # two workers: the task folded and up to four more, of two applications each
    assert ahead == [min((k // 2 + 1 + 4) * 2, apps) for k in range(apps)]


@forking
def test_forked_run_builds_no_backend_in_its_parent(small_corpus, tmp_path, monkeypatch):
    builders = tmp_path / "builders"  # a file, since workers cannot append to our lists
    real_make_backend = pipeline.make_backend

    def make_backend(config):
        with builders.open("a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_make_backend(config)

    monkeypatch.setattr(pipeline, "make_backend", make_backend)
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(small_corpus), "--out", str(out)]) == 0
    pids = builders.read_text().split()
    # one backend in each of the two workers, none in this process
    assert len(pids) == len(set(pids)) == 2
    assert str(os.getpid()) not in pids


@pytest.mark.parametrize("parallelism", [1, pytest.param(2, marks=forking)])
def test_directories_that_declare_one_id_fail_and_write_no_report(corpus_copy, tmp_path,
                                                                  parallelism):
    apps = sorted(p for p in corpus_copy.iterdir() if p.is_dir())
    held, twin = apps[1], apps[12]  # in different tasks of a forked run
    form = twin / "form.xml"
    form.write_text(form.read_text().replace(f'id="{twin.name}"', f'id="{held.name}"'))
    out = tmp_path / "out"
    result = verify_corpus(RunConfig(corpus_root=corpus_copy, out_dir=out,
                                     parallelism=parallelism))
    assert result.exit_code == 2
    reason = f"application id '{held.name}' declared by 2 directories"
    assert [(f["app_id"], f["path"], f["reason"]) for f in result.manifest["failures"]] == [
        (held.name, held.name, reason), (held.name, twin.name, reason)]
    assert not (out / held.name).exists() and not (out / twin.name).exists()
    assert result.manifest["counts"]["applications_processed"] == len(apps) - 2
    assert result.manifest["files"]["failed"] == sorted(
        (str(p.relative_to(corpus_copy)) for app in (held, twin)
         for p in app.rglob("*") if p.is_file()), key=lambda rel: rel.replace("/", "\0"))
    assert result.manifest["files"] == rewalked_files(corpus_copy, out, result.manifest)


@pytest.mark.parametrize("parallelism", [1, pytest.param(2, marks=forking)])
def test_outputs_do_not_depend_on_where_the_corpus_lies(tmp_path, parallelism):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=10, consistency=0.76, seed=5, unsupported_rate=0.1))
    apps = sorted(p for p in corpus.iterdir() if p.is_dir())
    zip_app_photos(apps[0])
    (apps[1] / "anexos.zip").write_bytes(zip_members({"notas.docx": b"d"}))
    moved = tmp_path / "elsewhere" / "a" / "copy"
    shutil.copytree(corpus, moved)
    trees = []
    for root, out in ((corpus, tmp_path / "out"), (moved, tmp_path / "moved-out")):
        result = verify_corpus(RunConfig(corpus_root=root, out_dir=out,
                                         parallelism=parallelism))
        assert result.exit_code == 0
        trees.append(output_tree(out))
    assert trees[0] == trees[1]
    assert not any(str(corpus).encode() in data for data in trees[0].values())
    notices = json.loads(trees[0][f"{apps[1].name}/typology.json"])["unsupported"]
    assert f"{apps[1].name}/anexos.zip!notas.docx" in [n["path"] for n in notices]


def test_every_output_record_carries_the_schema_version(corpus_copy, tmp_path):
    app_dir = sorted(p for p in corpus_copy.iterdir() if p.is_dir())[0]
    (app_dir / "notas.docx").write_bytes(b"d")
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus_copy), "--out", str(out)]) == 0
    records = sorted(out.glob("*/*.json"))
    assert len(records) == 4 * 20
    for path in [*records, out / "manifest.json"]:
        assert json.loads(path.read_text())["schema_version"] == 2, path


def test_every_check_status_is_given(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["gen-corpus", "--out", str(corpus), "--n", "20", "--seed", "13",
                 "--unsupported-rate", "0.1"]) == 0
    assert main(["verify", "--corpus", str(corpus), "--out", str(out)]) == 0
    counts = json.loads((out / "metrics.json").read_text())["total"]["status_counts"]
    assert [status.value for status in CheckStatus if not counts.get(status.value)] == []


def test_a_symlinked_application_directory_is_not_followed(tmp_path, caplog):
    corpus, outside = tmp_path / "corpus", tmp_path / "outside"
    write_corpus(corpus, GenOptions(n_apps=2, consistency=0.76, seed=3))
    linked = sorted(p for p in corpus.iterdir() if p.is_dir())[1]
    shutil.move(linked, outside)
    linked.symlink_to(outside, target_is_directory=True)
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="claimcheck"):
        result = verify_corpus(RunConfig(corpus_root=corpus, out_dir=out))
    assert result.exit_code == 0
    assert result.manifest["counts"]["applications_processed"] == 1
    assert not (out / linked.name).exists()
    assert not any(path.startswith(f"{linked.name}/")
                   for paths in result.manifest["files"].values() for path in paths)
    assert log_events(caplog, "entry_skipped") == [{
        "event": "entry_skipped", "path": linked.name,
        "reason": "symlinked directory not followed"}]


def test_reports_show_the_descriptions_of_their_own_catalog(small_corpus, tmp_path):
    import yaml
    from importlib import resources

    shipped = yaml.safe_load(resources.files("claimcheck").joinpath("catalog.yaml")
                             .read_text("utf-8"))
    check = next(c for c in shipped["checks"] if c.get("applies_to", ["*"]) == ["*"])
    texts = {"one": "Catalog <one> & its \"text\"", "two": "Catalog 'two' & <its> text"}
    pages = {}
    for name, text in texts.items():
        check["description"] = text
        catalog_file = tmp_path / f"{name}.yaml"
        catalog_file.write_text(yaml.safe_dump(shipped), encoding="utf-8")
        out = tmp_path / name
        # both runs in this process, one after the other
        assert verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=out,
                                       catalog_path=catalog_file,
                                       parallelism=1)).exit_code == 0
        kind = check["report"]
        pages[name] = [(json.loads(p.read_text())["outcomes"], p.with_suffix(".html").read_text())
                       for p in sorted(out.glob(f"*/{kind}.json"))]
    for name, text in texts.items():
        other = texts["two" if name == "one" else "one"]
        for outcomes, page in pages[name]:
            [outcome] = [o for o in outcomes if o["check_id"] == check["id"]]
            assert outcome["description"] == text
            assert html.escape(text) in page
            assert html.escape(other) not in page


def test_a_rerun_truncates_each_report_and_creates_files_with_the_umask(small_corpus,
                                                                        tmp_path):
    app_id = sorted(p.name for p in small_corpus.iterdir() if p.is_dir())[0]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    (reused / app_id).mkdir(parents=True)
    stale = reused / app_id / "eligibility.json"
    stale.write_bytes(b"x" * 1_000_000)
    umask = os.umask(0o027)
    try:
        for out in (fresh, reused):
            assert verify_corpus(RunConfig(corpus_root=small_corpus, out_dir=out)).exit_code == 0
    finally:
        os.umask(umask)
    assert stale.read_bytes() == (fresh / app_id / "eligibility.json").read_bytes()
    assert output_tree(reused) == output_tree(fresh)
    written = [p for p in fresh.rglob("*") if p.is_file()]
    assert len(written) == 7 * 20 + 3
    assert {p.stat().st_mode & 0o777 for p in written} == {0o666 & ~0o027}


def test_the_escape_memo_does_not_grow_with_the_applications(tmp_path, catalog, monkeypatch):
    # the memo is the process's, so start from an empty one
    monkeypatch.setattr(report_module, "_ESCAPES", report_module.HtmlEscapes())
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=200, consistency=0.76, seed=0))
    out = tmp_path / "out"
    out.mkdir()
    applications = pipeline._Applications(RunConfig(corpus_root=corpus, out_dir=out), catalog)
    sizes = {}
    apps = ingest.scan_forms(corpus).applications
    for done, (_, record, error, *_) in enumerate(applications.results(apps), start=1):
        assert record is not None, error
        sizes[done] = len(report_module._ESCAPES)
    assert len(sizes) == 200
    assert sizes[200] <= sizes[20]


def test_a_full_escape_memo_escapes_without_keeping():
    escapes = report_module.HtmlEscapes({"<seed>": "&lt;seed&gt;"})
    texts = [f"<{n}> & '{n}'" for n in range(report_module.HtmlEscapes.MAX_ENTRIES + 5)]
    assert [escapes[text] for text in texts] == [html.escape(text) for text in texts]
    assert len(escapes) == report_module.HtmlEscapes.MAX_ENTRIES
    assert escapes["<seed>"] == "&lt;seed&gt;"


@pytest.mark.parametrize("file_name, tag, source, bad", [
    ("form.xml", "invoice_value", "form:invoice_value", ".."),
    ("fatura.pdf.fields.json", "total_value", "invoice:total_value", ".."),
    ("form.xml", "applicant_tax_id", "form:applicant_tax_id", "41317007²"),
])
def test_a_malformed_value_sends_only_the_checks_that_read_it_to_a_human(
        tmp_path, file_name, tag, source, bad):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=2, consistency=0.76, seed=5))
    victim = sorted(p.name for p in corpus.iterdir() if p.is_dir())[0]

    def statuses(run_name: str) -> dict[str, tuple[str, set[str]]]:
        """Each check's status in the victim's reports, with the sources of
        the values it read."""
        out = tmp_path / run_name
        assert main(["verify", "--corpus", str(corpus), "--out", str(out),
                     "--parallelism", "1"]) == 0
        found = {}
        for path in (out / victim).glob("*.json"):
            for outcome in json.loads(path.read_text()).get("outcomes", ()):
                sources = {side["source"].partition(" ")[0]
                           for side in (outcome["lhs"], outcome["rhs"]) if side}
                found[outcome["check_id"]] = (outcome["status"], sources)
        return found

    clean = statuses("clean")
    path = corpus / victim / file_name
    if file_name == "form.xml":
        text, count = re.subn(rf"(<{tag} [^>]*>)[^<]*(</{tag}>)", rf"\g<1>{bad}\g<2>",
                              path.read_text(encoding="utf-8"))
        assert count == 1
        path.write_text(text, encoding="utf-8")
    else:
        fields = json.loads(path.read_text(encoding="utf-8"))
        fields[tag] = bad
        path.write_text(json.dumps(fields), encoding="utf-8")
    malformed = statuses("malformed")
    assert clean.keys() == malformed.keys()
    moved = {check for check in clean if clean[check][0] != malformed[check][0]}
    readers = {check for check, (_, sources) in clean.items() if source in sources}
    assert moved and moved <= readers
    assert {malformed[check][0] for check in readers} == {CheckStatus.MANUAL_CHECK.value}


class _ReplyStub(FixtureStubServer):
    """Fixture stub whose reply for the document at ``relpath`` carries
    ``meta`` in place of its sidecar's cost and time."""

    def __init__(self, corpus_root: Path, relpath: str, meta: dict):
        super().__init__(corpus_root)
        self.relpath, self.meta = relpath, meta

    def _answer(self, request: dict) -> dict:
        answer = super()._answer(request)
        if embedded_relpath(base64.b64decode(request["content_b64"])) == self.relpath:
            answer.update(self.meta)  # json.dumps writes a NaN or infinity as a bare token
        return answer


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def with_bad_value(sidecar: dict, name: str, bad: object) -> object:
    """``sidecar`` with ``bad`` in place of the whole sidecar (``name`` is
    "sidecar"), of its ``__faults__`` list, or of its ``__meta__`` value
    ``name``."""
    if name == "sidecar":
        return bad
    if name == "__faults__":
        return {**sidecar, "__faults__": bad}
    return {**sidecar, "__meta__": {**sidecar["__meta__"], name: bad}}


@pytest.mark.parametrize("backend, name, bad", [
    ("mock", "cost_eur", "abc"), ("mock", "cost_eur", math.nan), ("mock", "cost_eur", -5),
    ("mock", "cost_eur", [1]), ("mock", "elapsed_ms", math.inf), ("mock", "elapsed_ms", "1.5"),
    ("remote", "cost_eur", math.nan), ("remote", "cost_eur", -5), ("remote", "cost_eur", 1e308),
    ("remote", "elapsed_ms", math.inf), ("remote", "elapsed_ms", -1),
    ("remote", "elapsed_ms", 1e12),
    # a sidecar of the wrong shape is read as a failed extraction too
    ("mock", "sidecar", []), ("mock", "__faults__", "drop"), ("mock", "__faults__", [1]),
    ("mock", "__faults__", [{"mode": "drop", "tag": ["total_value"]}]),
])
def test_a_bad_cost_or_time_makes_only_its_document_unreadable(tmp_path, backend, name, bad):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=2, consistency=0.76, seed=5))
    victim, other = sorted(p.name for p in corpus.iterdir() if p.is_dir())
    relpath = f"{victim}/fatura.pdf"

    def run(run_name: str, values: dict) -> Path:
        out = tmp_path / run_name
        args = ["verify", "--corpus", str(corpus), "--out", str(out), "--parallelism", "1"]
        if backend == "mock":
            sidecar = corpus / (relpath + ".fields.json")
            fields = json.loads(sidecar.read_text(encoding="utf-8"))
            for value_name, value in values.items():
                fields = with_bad_value(fields, value_name, value)
            sidecar.write_text(json.dumps(fields), encoding="utf-8")
            assert main(args) == 0
        else:
            with _ReplyStub(corpus, relpath, values) as stub:
                assert main([*args, "--backend", "remote", "--endpoint", stub.url]) == 0
        return out

    clean, bad_run = run("clean", {}), run("bad", {name: bad})
    for path in bad_run.rglob("*.json"):
        strict_json(path.read_text(encoding="utf-8"))
    assert output_tree(clean / other) == output_tree(bad_run / other)
    # the document is read as one whose extraction failed ...
    before, after = app_metas(clean, victim), app_metas(bad_run, victim)
    moved = [(b, a) for b, a in zip(before, after) if b != a]
    assert [(b["path"], a["cost_eur"], a["elapsed_ms"]) for b, a in moved] == [(relpath, 0.0, 0)]
    # ... so only the values read from it became unreadable (backend_error)
    unreadable = 0
    for report in ("eligibility.json", "common_core.json", "typology.json"):
        outcomes = [json.loads((out / victim / report).read_text())["outcomes"]
                    for out in (clean, bad_run)]
        for was, now in zip(*outcomes):
            sides = [side for side in ("lhs", "rhs") if was[side] != now[side]]
            if not sides:
                assert was == now
            for side in sides:
                assert now[side]["source"].endswith("(fatura.pdf)")
                assert (now[side]["state"], now[side]["detail"]) == (
                    "unreadable", "unreadable value (backend_error)")
                unreadable += 1
    assert unreadable


def test_a_form_above_the_size_cap_fails_its_application(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, GenOptions(n_apps=2, consistency=0.76, seed=5))
    victim, other = sorted(p.name for p in corpus.iterdir() if p.is_dir())
    form = corpus / victim / "form.xml"
    # still well-formed: the padding is a comment
    form.write_text(form.read_text(encoding="utf-8") + f"<!-- {'x' * 2_000_000} -->\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify", "--corpus", str(corpus), "--out", str(out),
                 "--max-file-mb", "1"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"app_id": victim, "path": victim, "reason": "form.xml is above the 1 MB cap"}]
    assert manifest["files"]["failed"] == ingest.list_files(corpus / victim)
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [other]
