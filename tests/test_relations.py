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
- R4, service faults: ``__faults__`` entries (``drop``, ``corrupt``,
  ``fail``) in sidecars turn no status into ``auto_verified``, and no check
  that reads a ``fail``ed document is ``auto_verified``.
- R5, malformed values: replacing one form or sidecar value, or one
  ``__meta__`` cost or time, of each application with a malformed string
  or a JSON value of another type leaves every application processed and
  every ``*.json`` strict JSON, turns no status into ``auto_verified``,
  and changes only the checks that read the value (for ``__meta__``, its
  document).

In every run, no check labelled ``real_error=true`` is ``auto_verified``.
"""

import csv
import json
import math
import random
import re
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
# malformed strings of the kinds the value parsers refuse: repeated or
# misplaced separators, non-ASCII digits, exponents, words, nothing at all
MALFORMED_TEXT = ("..", "41317007²", "1.2.3", ",,", "1..", "٣٢٠", "1_000", "1e3", "nan", "€", "")
# JSON values of other types than the string a sidecar tag holds
OTHER_TYPES = (41317007, 0.5, [1], {"value": "1"}, True)
MALFORMED_META = ("abc", [1], math.nan, -5, 1e308)
# an upload folder for each slot, named as applicants name them
SLOT_FOLDERS = {"invoice": "fatura", "receipt": "recibo", "property_registry": "certidao",
                "prior_communication": "mcp", "energy_certificate": "certificado",
                "equipment_datasheet": "datasheet", "photo": "fotos"}


def verify(corpus: Path, out: Path, labels: Path) -> dict[tuple[str, str], dict]:
    """The outcome of each ``(app_id, check_id)`` of a run on ``corpus``,
    after checking that no check ``labels`` marks a real error was
    auto-verified."""
    assert main(["verify", "--corpus", str(corpus), "--out", str(out),
                 "--parallelism", "1"]) == 0
    outcomes: dict[tuple[str, str], dict] = {}
    for app_out in sorted(p for p in out.iterdir() if p.is_dir()):
        for name in REPORTS:
            for outcome in json.loads((app_out / name).read_text(encoding="utf-8"))["outcomes"]:
                key = (app_out.name, outcome["check_id"])
                assert key not in outcomes
                outcomes[key] = outcome
    with open(labels, newline="", encoding="utf-8") as rows:
        real_errors = [(row["app_id"], row["check_id"]) for row in csv.DictReader(rows)
                       if row["real_error"] == "true"]
    assert real_errors
    assert [key for key in real_errors if outcomes[key]["status"] == "auto_verified"] == []
    return outcomes


def statuses(outcomes: dict[tuple[str, str], dict]) -> dict[tuple[str, str], str]:
    return {key: outcome["status"] for key, outcome in outcomes.items()}


def documents_read(outcome: dict) -> set[str]:
    """The file names of the documents an outcome's two sides were read
    from: a side's source reads ``slot:tag (file name)``."""
    return {match.group(1) for side in ("lhs", "rhs")
            if (match := re.search(r" \((.+)\)$", outcome[side]["source"]))}


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> tuple[Path, Path, dict, dict[str, dict[str, str]]]:
    """The untransformed corpus, its labels, its outcomes, and each
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
    outcomes = verify(corpus, out, labels)
    slots = {}
    for app_out in sorted(p for p in out.iterdir() if p.is_dir()):
        docs = json.loads((app_out / "extraction.json").read_text(encoding="utf-8"))["docs"]
        slots[app_out.name] = {Path(doc["path"]).name: doc["slot"] for doc in docs}
    return corpus, labels, outcomes, slots


def run_transformed(base, tmp_path: Path, transform) -> dict[tuple[str, str], dict]:
    """The outcomes of a run on a copy of the base corpus to which
    ``transform(corpus, slots)`` was applied."""
    corpus, labels, _, slots = base
    copy = tmp_path / "corpus"
    shutil.copytree(corpus, copy)
    transform(copy, slots)
    return verify(copy, tmp_path / "out", labels)


def transformed(base, tmp_path: Path, transform) -> None:
    """Check that a run on the transformed base corpus gives the base
    run's statuses."""
    assert statuses(run_transformed(base, tmp_path, transform)) == statuses(base[2])


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


def test_r4_service_faults_never_add_automation(base, tmp_path):
    failed = set()  # (app_id, file name) of each document whose fetch fails

    def inject_faults(corpus, slots):
        rng = random.Random(SEED)
        for app_id, docs in slots.items():
            for name in rng.sample(sorted(docs), k=3):
                path = corpus / app_id / (name + SIDECAR)
                sidecar = json.loads(path.read_text(encoding="utf-8"))
                tags = sorted(tag for tag in sidecar if not tag.startswith("__"))
                # a photo's sidecar holds no tag: only its fetch can fail
                mode = rng.choice(("drop", "corrupt", "fail") if tags else ("fail",))
                if mode == "fail":
                    sidecar["__faults__"] = [{"mode": mode}]
                    failed.add((app_id, name))
                else:
                    sidecar["__faults__"] = [{"mode": mode, "tag": rng.choice(tags)}]
                path.write_text(json.dumps(sidecar), encoding="utf-8")

    outcomes = base[2]
    faulted = run_transformed(base, tmp_path, inject_faults)
    assert faulted.keys() == outcomes.keys()
    assert statuses(faulted) != statuses(outcomes)
    assert [key for key, outcome in faulted.items() if outcome["status"] == "auto_verified"
            and outcomes[key]["status"] != "auto_verified"] == []
    readers = [key for key, outcome in outcomes.items()
               if any((key[0], name) in failed for name in documents_read(outcome))]
    assert readers
    assert [key for key in readers if faulted[key]["status"] == "auto_verified"] == []


def strict_json(path: Path):
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def test_r5_a_malformed_value_changes_only_the_checks_that_read_it(base, tmp_path):
    # app_id -> whether an outcome side's source names the replaced value
    # (for __meta__, any value of its document)
    reads = {}

    def replace_values(corpus, slots):
        rng = random.Random(SEED)
        for number, (app_id, docs) in enumerate(slots.items()):
            app_dir = corpus / app_id
            where = ("form", "sidecar", "__meta__")[number % 3]
            if where == "form":
                form = app_dir / "form.xml"
                text = form.read_text(encoding="utf-8")
                field = rng.choice(sorted(re.findall(r'<(\w+) type="\w+">', text)))
                text, count = re.subn(rf"(<{field} [^>]*>)[^<]*(</{field}>)",
                                      rf"\g<1>{rng.choice(MALFORMED_TEXT)}\g<2>", text)
                assert count == 1
                form.write_text(text, encoding="utf-8")
                reads[app_id] = lambda source, field=field: source == f"form:{field}"
                continue
            # a photo's sidecar holds no tag; a "None" tag is absent, not a value
            sidecars = {name: json.loads((app_dir / (name + SIDECAR)).read_text(encoding="utf-8"))
                        for name in sorted(docs)}
            name, sidecar = rng.choice([
                (name, sidecar) for name, sidecar in sidecars.items()
                if any(not tag.startswith("__") and value != "None"
                       for tag, value in sidecar.items())])
            if where == "sidecar":
                tag = rng.choice(sorted(tag for tag, value in sidecar.items()
                                        if not tag.startswith("__") and value != "None"))
                sidecar[tag] = rng.choice(MALFORMED_TEXT + OTHER_TYPES)
                reads[app_id] = lambda source, end=f":{tag} ({name})": source.endswith(end)
            else:
                sidecar["__meta__"][rng.choice(("cost_eur", "elapsed_ms"))] = rng.choice(
                    MALFORMED_META)
                reads[app_id] = lambda source, end=f" ({name})": source.endswith(end)
            # a NaN is written as a bare token, which the sidecar reader accepts
            (app_dir / (name + SIDECAR)).write_text(json.dumps(sidecar), encoding="utf-8")

    outcomes = base[2]
    malformed = run_transformed(base, tmp_path, replace_values)
    for path in sorted((tmp_path / "out").rglob("*.json")):
        strict_json(path)
    assert malformed.keys() == outcomes.keys()
    moved = {key for key, outcome in malformed.items()
             if outcome["status"] != outcomes[key]["status"]}
    assert moved
    assert [key for key in moved if malformed[key]["status"] == "auto_verified"] == []
    readers = {key for key, outcome in outcomes.items()
               if any(reads[key[0]](outcome[side]["source"]) for side in ("lhs", "rhs"))}
    assert sorted(moved - readers) == []
