import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from claimcheck.gencorpus import (
    DEFAULT_TYPOLOGY_MIX,
    FAULT_UNITS,
    GenOptions,
    _build_baseline,
    build_world,
    make_tax_id,
    plan_worlds,
    world_bundle_and_docs,
    write_corpus,
)
from claimcheck.ingest import VALID_TYPOLOGIES, TypologyId, scan_corpus
from claimcheck.normalize import validate_tax_id
from claimcheck.rules import CheckStatus, evaluate_application


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        options = GenOptions(n_apps=10, consistency=0.8, seed=1)
        write_corpus(tmp_path / "one", options)
        write_corpus(tmp_path / "two", options)
        assert tree_hashes(tmp_path / "one") == tree_hashes(tmp_path / "two")

    def test_different_seed_differs(self, tmp_path):
        write_corpus(tmp_path / "one", GenOptions(n_apps=5, seed=1))
        write_corpus(tmp_path / "two", GenOptions(n_apps=5, seed=2))
        assert tree_hashes(tmp_path / "one") != tree_hashes(tmp_path / "two")


class TestTypologyMix:
    def test_default_mix_share_of_heating(self):
        worlds = plan_worlds(GenOptions(n_apps=200, seed=3))
        majors = Counter(w.typology.major for w in worlds)
        assert abs(majors[3] / 200 - 0.48) < 0.03
        assert len(worlds) == 200

    def test_custom_mix(self):
        worlds = plan_worlds(GenOptions(n_apps=10, seed=3, typology_mix={4: 1.0}))
        assert all(w.typology.major == 4 for w in worlds)

    def test_sub_typologies_cycle(self):
        worlds = plan_worlds(GenOptions(n_apps=30, seed=3, typology_mix={3: 1.0}))
        subs = Counter(str(w.typology) for w in worlds)
        assert subs == {"3.1": 10, "3.2": 10, "3.3": 10}


class TestQuota:
    def test_corpus_quota_exact(self, catalog):
        worlds = plan_worlds(GenOptions(n_apps=50, consistency=0.76, seed=11), catalog)
        total = sum(len(w.labels) for w in worlds)
        flipped = sum(sum(w.labels.values()) for w in worlds)
        assert flipped == int(total * 0.24)

    def test_full_consistency_no_faults(self, catalog):
        worlds = plan_worlds(GenOptions(n_apps=10, consistency=1.0, seed=11), catalog)
        assert all(not any(w.labels.values()) for w in worlds)
        assert all(w.fired_units == [] for w in worlds)


class TestFaultTargeting:
    def test_labels_match_engine_outcomes(self, catalog):
        for seed in range(25):
            rng = random.Random(f"t:{seed}")
            typology = TypologyId.parse(rng.choice(("1", "2.2.2", "3.2", "4", "5.2")))
            world = build_world(f"app_{seed}", typology, catalog, rng,
                                consistency=rng.uniform(0.4, 0.95))
            bundle, docs = world_bundle_and_docs(world)
            outcomes = evaluate_application(bundle, docs, catalog.checks)
            statuses = {o.check_id: o.status for batch in outcomes.values() for o in batch}
            for check_id, real_error in world.labels.items():
                flagged = statuses[check_id] is not CheckStatus.AUTO_VERIFIED
                assert flagged == real_error, (seed, check_id, statuses[check_id])

    def test_each_unit_alone_flips_exactly_its_applicable_checks(self, catalog):
        tried = set()
        for unit in FAULT_UNITS:
            for tid in VALID_TYPOLOGIES:
                typology = TypologyId.parse(tid)
                applicable = {c.check_id for c in catalog.for_typology(typology)}
                if not set(unit.checks) & applicable:
                    continue
                world, alts = _build_baseline("app_1", typology,
                                              random.Random(f"{unit.name}:{tid}"), 11)
                unit.edit(world, alts)
                bundle, docs = world_bundle_and_docs(world)
                outcomes = evaluate_application(bundle, docs, catalog.checks)
                flagged = {o.check_id for batch in outcomes.values() for o in batch
                           if o.status is not CheckStatus.AUTO_VERIFIED}
                assert flagged == set(unit.checks) & applicable, (unit.name, tid)
                tried.add(unit.name)
        assert tried == {unit.name for unit in FAULT_UNITS}

    def test_every_check_covered_by_some_unit(self, catalog):
        covered = {check for unit in FAULT_UNITS for check in unit.checks}
        assert {c.check_id for c in catalog.checks} <= covered

    def test_conflicts_are_symmetric(self):
        by_name = {u.name: u for u in FAULT_UNITS}
        for unit in FAULT_UNITS:
            for other in unit.conflicts:
                assert unit.name in by_name[other].conflicts, (unit.name, other)


class TestWrittenCorpus:
    def test_layout_and_scan(self, tmp_path):
        summary = write_corpus(tmp_path, GenOptions(n_apps=4, seed=5, docs_per_app=11))
        assert summary.n_apps == 4
        result = scan_corpus(tmp_path)
        assert len(result.bundles) == 4 and not result.failures
        assert all(len(b.documents) == 11 for b in result.bundles)
        assert all(not b.unsupported for b in result.bundles)

    def test_labels_file_shape(self, tmp_path):
        write_corpus(tmp_path, GenOptions(n_apps=2, seed=5))
        lines = (tmp_path / "labels.csv").read_text().strip().splitlines()
        assert lines[0] == "app_id,check_id,real_error,category"
        assert all(line.count(",") == 3 for line in lines[1:])

    def test_manifest_records_faults(self, tmp_path):
        write_corpus(tmp_path, GenOptions(n_apps=6, consistency=0.5, seed=5))
        manifest = json.loads((tmp_path / "corpus_manifest.json").read_text())
        assert manifest["n_apps"] == 6
        fired = [a for a in manifest["apps"] if a["fired_units"]]
        assert fired, "a 0.5-consistency corpus must fire fault units"
        for app in manifest["apps"]:
            assert bool(app["fired_units"]) == bool(app["inconsistent_checks"])

    def test_unsupported_rate_marks_exact_count(self, tmp_path):
        options = GenOptions(n_apps=10, seed=5, unsupported_rate=0.1, docs_per_app=11)
        summary = write_corpus(tmp_path, options)
        assert summary.unsupported_files == 11  # floor(110 * 0.1)
        result = scan_corpus(tmp_path)
        notices = sum(len(b.unsupported) for b in result.bundles)
        assert notices == 11
        docx = list(tmp_path.rglob("*.docx"))
        assert len(docx) == 11
        assert not any(p.with_name(p.name + ".fields.json").exists() for p in docx)


# SHA-256 of each corpus's {relative path: SHA-256 of the file} map. The
# benchmark's and the acceptance criteria's corpora are generated too, so a
# generator change that moves any byte of these, labels and manifest
# included, fails here; a new opt-in unit must leave them as they are.
PINNED_CORPORA = {
    "major_1": "a73d6fd8dd792dfab7cab923016562bdaff91800ce631ab23bb25734ea34d555",
    "major_2": "e081e43780906a800a7fe83ee4f29b226bd69ff1c791d2f6b30eb28f11c5922b",
    "major_3": "25c585fb5a8a98bc66651c5eab7dde80142ed13ca0a8e2c801caa94559905893",
    "major_4": "272a73ce6b6b293ffe7abdf1e72a76b2bd7a98dd5ac50c537976dc5cf85b64a5",
    "major_5": "e009dc8b36a6cc20910a50d16e2b7542f92a6b79f38da38a1a7d5f7d31c3eb94",
    "unsupported": "75ae0188cc3c207ca4af25dd5dc3ea29298f4ede4d571c556813a9ec479f7d28",
}


def test_generated_corpora_are_pinned_and_fire_every_unit(tmp_path):
    options = {f"major_{major}": GenOptions(n_apps=12, seed=7, consistency=0.3,
                                             typology_mix={major: 1.0})
               for major in range(1, 6)}
    options["unsupported"] = GenOptions(n_apps=12, seed=7, consistency=0.3,
                                        unsupported_rate=0.1)
    digests, fired = {}, set()
    for name, option in options.items():
        write_corpus(tmp_path / name, option)
        tree = json.dumps(tree_hashes(tmp_path / name), sort_keys=True)
        digests[name] = hashlib.sha256(tree.encode()).hexdigest()
        manifest = json.loads((tmp_path / name / "corpus_manifest.json").read_text())
        fired.update(unit for app in manifest["apps"] for unit in app["fired_units"])
    assert digests == PINNED_CORPORA
    assert fired == {unit.name for unit in FAULT_UNITS}


def test_make_tax_id_always_valid():
    rng = random.Random(0)
    for _ in range(200):
        assert validate_tax_id(make_tax_id(rng)).valid


def test_default_mix_weights_sum():
    assert sum(DEFAULT_TYPOLOGY_MIX.values()) == 100.0
