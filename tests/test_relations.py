"""Relations that hold over the whole ``verify`` path: scan, archive
expansion, sidecar reads, rules and the report writer.

Each test writes a seeded generated corpus, applies one transform whose
effect on the verdicts is known, runs ``main(["verify", ...])`` in this
process at ``--parallelism 1`` and compares every ``(app_id, check_id)``
status with the run on the untransformed corpus.

- R1, layout: zipping one slot's documents into an archive, upper-casing
  suffixes, or moving documents into folders that name their slot leaves
  every status unchanged.
- R2, unrelated files: an unsupported file in slot ``other``, or a loose
  file at the corpus root, leaves every status unchanged.

In every run, no check labelled ``real_error=true`` is ``auto_verified``.
"""

import csv
import json
import random
import shutil
import zipfile
from pathlib import Path

import pytest

from claimcheck.cli import main
from claimcheck.gencorpus import GenOptions, write_corpus

N_APPS = 48
SEED = 29
SIDECAR = ".fields.json"
REPORTS = ("eligibility.json", "common_core.json", "typology.json")
# an upload folder for each slot, named as applicants name them
SLOT_FOLDERS = {"invoice": "fatura", "receipt": "recibo", "property_registry": "certidao",
                "prior_communication": "mcp", "energy_certificate": "certificado",
                "equipment_datasheet": "datasheet", "photo": "fotos"}


def verify(corpus: Path, out: Path, labels: Path) -> dict[tuple[str, str], str]:
    """The status of each ``(app_id, check_id)`` of a run on ``corpus``,
    after checking that no check ``labels`` marks a real error was
    auto-verified."""
    assert main(["verify", "--corpus", str(corpus), "--out", str(out),
                 "--parallelism", "1"]) == 0
    statuses: dict[tuple[str, str], str] = {}
    for app_out in sorted(p for p in out.iterdir() if p.is_dir()):
        for name in REPORTS:
            for outcome in json.loads((app_out / name).read_text(encoding="utf-8"))["outcomes"]:
                key = (app_out.name, outcome["check_id"])
                assert key not in statuses
                statuses[key] = outcome["status"]
    with open(labels, newline="", encoding="utf-8") as rows:
        real_errors = [(row["app_id"], row["check_id"]) for row in csv.DictReader(rows)
                       if row["real_error"] == "true"]
    assert real_errors
    assert [key for key in real_errors if statuses[key] == "auto_verified"] == []
    return statuses


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> tuple[Path, Path, dict, dict[str, dict[str, str]]]:
    """The untransformed corpus, its labels, its statuses, and each
    application's documents with their slots, by file name. The corpus
    holds application directories only: its generator's files at the root
    are moved out or removed."""
    root = tmp_path_factory.mktemp("relations")
    corpus = root / "corpus"
    generated = write_corpus(corpus, GenOptions(n_apps=N_APPS, seed=SEED))
    labels = generated.labels_path.rename(root / "labels.csv")
    for path in corpus.iterdir():
        if path.is_file():
            path.unlink()
    out = root / "out"
    statuses = verify(corpus, out, labels)
    slots = {}
    for app_out in sorted(p for p in out.iterdir() if p.is_dir()):
        docs = json.loads((app_out / "extraction.json").read_text(encoding="utf-8"))["docs"]
        slots[app_out.name] = {Path(doc["path"]).name: doc["slot"] for doc in docs}
    return corpus, labels, statuses, slots


def transformed(base, tmp_path: Path, transform) -> None:
    """Apply ``transform(corpus, slots)`` to a copy of the base corpus and
    check that a run on it gives the base run's statuses."""
    corpus, labels, statuses, slots = base
    copy = tmp_path / "corpus"
    shutil.copytree(corpus, copy)
    transform(copy, slots)
    assert verify(copy, tmp_path / "out", labels) == statuses


def move(app_dir: Path, name: str, target: str) -> None:
    """Move the document ``name`` of ``app_dir``, with its sidecar, to
    ``target`` below ``app_dir``."""
    (app_dir / target).parent.mkdir(parents=True, exist_ok=True)
    (app_dir / name).rename(app_dir / target)
    (app_dir / (name + SIDECAR)).rename(app_dir / (target + SIDECAR))


def test_r1_a_slot_zipped_into_one_archive(base, tmp_path):
    def zip_one_slot(corpus, slots):
        rng = random.Random(SEED)
        for app_id, docs in slots.items():
            app_dir = corpus / app_id
            slot = rng.choice(sorted(set(docs.values())))
            # the archive's own name names no slot: its members are mapped by theirs
            with zipfile.ZipFile(app_dir / "anexos.zip", "w", zipfile.ZIP_DEFLATED) as archive:
                for name in sorted(n for n, s in docs.items() if s == slot):
                    for path in (app_dir / name, app_dir / (name + SIDECAR)):
                        archive.write(path, arcname=path.name)
                        path.unlink()

    transformed(base, tmp_path, zip_one_slot)


def test_r1_suffixes_upper_cased(base, tmp_path):
    def upper_case_suffixes(corpus, slots):
        for app_id, docs in slots.items():
            for name in docs:
                stem, _, suffix = name.rpartition(".")
                move(corpus / app_id, name, f"{stem}.{suffix.upper()}")

    transformed(base, tmp_path, upper_case_suffixes)


def test_r1_documents_moved_into_folders_of_their_slot(base, tmp_path):
    def move_into_slot_folders(corpus, slots):
        for app_id, docs in slots.items():
            # a name with no slot keyword: only the folder gives the slot
            for number, (name, slot) in enumerate(sorted(docs.items())):
                move(corpus / app_id, name,
                     f"{SLOT_FOLDERS[slot]}/anexo_{number}{Path(name).suffix}")

    transformed(base, tmp_path, move_into_slot_folders)


def test_r2_an_unsupported_file_in_slot_other(base, tmp_path):
    def add_notes(corpus, slots):
        for app_id in slots:
            (corpus / app_id / "notas.docx").write_bytes(b"notas do requerente")

    transformed(base, tmp_path, add_notes)


def test_r2_a_loose_file_at_the_corpus_root(base, tmp_path):
    def add_loose_file(corpus, slots):
        (corpus / "leia-me.txt").write_text("corpus de teste\n", encoding="utf-8")

    transformed(base, tmp_path, add_loose_file)
