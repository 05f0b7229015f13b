import dataclasses
import datetime as dt
import random

import pytest
import yaml

from claimcheck.catalog import CatalogError, parse_catalog
from claimcheck.extract import ExtractedDocument, ExtractedValue, ExtractionMeta
from claimcheck.gencorpus import build_world, world_bundle_and_docs
from claimcheck.ingest import DocumentRef, DocumentSlot, FileKind, TypologyId, UnsupportedNotice
from claimcheck.metrics import MetricsBlock
from claimcheck.normalize import DeclaredValue, FormData, Money, PowerValue, validate_tax_id
from claimcheck.rules import (
    CheckDefinition,
    CheckStatus,
    Comparator,
    EngineSettings,
    ReportKind,
    Selector,
    evaluate_application,
    evaluate_check,
)

from oracle_eval import oracle_evaluate

T1 = TypologyId.parse("1")
T4 = TypologyId.parse("4")
SUBMITTED = dt.date(2023, 6, 15)


def form_with(**values) -> FormData:
    form = FormData()
    for field_id, value in values.items():
        form.declared[field_id] = DeclaredValue(field_id, "text", str(value), value=value)
    return form


def doc_with(slot: DocumentSlot, **fields) -> ExtractedDocument:
    ref = DocumentRef(path=__import__("pathlib").Path(f"{slot.value}.pdf"),
                      kind=FileKind.PDF, slot=slot)
    wrapped = {}
    for name, value in fields.items():
        if isinstance(value, ExtractedValue):
            wrapped[name] = value
        else:
            wrapped[name] = ExtractedValue.present(value, str(value))
    return ExtractedDocument(doc=ref, fields=wrapped, meta=ExtractionMeta(backend_id="test"))


def check(comparator: Comparator, lhs: Selector, rhs: Selector | None = None,
          check_id: str = "t.check", report: ReportKind = ReportKind.COMMON_CORE,
          applies=("*",)) -> CheckDefinition:
    return CheckDefinition(check_id=check_id, report=report, description="test check",
                           applies_to=tuple(applies), comparator=comparator, lhs=lhs, rhs=rhs)


class TestComparators:
    def test_equal_money_auto(self):
        defn = check(Comparator("equal_money"),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"),
                     Selector.doc(DocumentSlot.RECEIPT, "amount"))
        docs = [doc_with(DocumentSlot.INVOICE, total_value=Money(15000)),
                doc_with(DocumentSlot.RECEIPT, amount=Money(15000))]
        outcome = evaluate_check(defn, FormData(), docs, SUBMITTED)
        assert outcome.status is CheckStatus.AUTO_VERIFIED

    def test_equal_money_tolerance(self):
        defn = check(Comparator("equal_money", tolerance_cents=5),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"),
                     Selector.doc(DocumentSlot.RECEIPT, "amount"))
        docs = [doc_with(DocumentSlot.INVOICE, total_value=Money(15000)),
                doc_with(DocumentSlot.RECEIPT, amount=Money(15003))]
        assert evaluate_check(defn, FormData(), docs, SUBMITTED).status \
            is CheckStatus.AUTO_VERIFIED

    def test_date_geq_and_evidence(self):
        defn = check(Comparator("date_geq"),
                     Selector.doc(DocumentSlot.RECEIPT, "receipt_date"),
                     Selector.doc(DocumentSlot.INVOICE, "invoice_date"))
        ok_docs = [doc_with(DocumentSlot.RECEIPT, receipt_date=dt.date(2023, 1, 10)),
                   doc_with(DocumentSlot.INVOICE, invoice_date=dt.date(2023, 1, 5))]
        assert evaluate_check(defn, FormData(), ok_docs, SUBMITTED).status \
            is CheckStatus.AUTO_VERIFIED
        flipped = [doc_with(DocumentSlot.RECEIPT, receipt_date=dt.date(2023, 1, 5)),
                   doc_with(DocumentSlot.INVOICE, invoice_date=dt.date(2023, 1, 10))]
        outcome = evaluate_check(defn, FormData(), flipped, SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK
        assert outcome.lhs.rendered == "2023-01-05"
        assert outcome.rhs.rendered == "2023-01-10"

    def test_in_range_pct_battery(self):
        defn = check(Comparator("in_range_pct", lo_pct=120, hi_pct=250),
                     Selector.form("declared_battery_power"),
                     Selector.form("declared_peak_power"))
        form = form_with(declared_battery_power=1500, declared_peak_power=1000)
        assert evaluate_check(defn, form, [], SUBMITTED).status is CheckStatus.AUTO_VERIFIED
        form = form_with(declared_battery_power=1100, declared_peak_power=1000)
        assert evaluate_check(defn, form, [], SUBMITTED).status is CheckStatus.MANUAL_CHECK

    def test_text_fuzzy_threshold(self):
        defn = check(Comparator("text_match", mode="fuzzy"),
                     Selector.form("applicant_name"),
                     Selector.doc(DocumentSlot.INVOICE, "buyer_name"))
        docs = [doc_with(DocumentSlot.INVOICE, buyer_name="Joao da  Silva")]
        outcome = evaluate_check(defn, form_with(applicant_name="João da Silva"),
                                 docs, SUBMITTED)
        assert outcome.status is CheckStatus.AUTO_VERIFIED

    def test_text_distinct_conflict_of_interest(self):
        defn = check(Comparator("text_distinct"),
                     Selector.form("applicant_tax_id"),
                     Selector.doc(DocumentSlot.INVOICE, "seller_tax_id"))
        same = validate_tax_id("123456789")
        docs = [doc_with(DocumentSlot.INVOICE, seller_tax_id=same)]
        form = FormData()
        form.declared["applicant_tax_id"] = DeclaredValue(
            "applicant_tax_id", "tax_id", "123456789", value=same)
        assert evaluate_check(defn, form, docs, SUBMITTED).status is CheckStatus.MANUAL_CHECK

    def test_enum_is(self):
        defn = check(Comparator("enum_is", variant="A+"),
                     Selector.doc(DocumentSlot.EQUIPMENT_DATASHEET, "equipment_class"))
        docs = [doc_with(DocumentSlot.EQUIPMENT_DATASHEET, equipment_class="A+")]
        assert evaluate_check(defn, FormData(), docs, SUBMITTED).status \
            is CheckStatus.AUTO_VERIFIED

    def test_present_if_rhs_above(self):
        defn = check(Comparator("present_if_rhs_above", threshold_cents=500000),
                     Selector.doc(DocumentSlot.ENERGY_CERTIFICATE, "certificate_number"),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"))
        below = [doc_with(DocumentSlot.INVOICE, total_value=Money(400000))]
        assert evaluate_check(defn, FormData(), below, SUBMITTED).status \
            is CheckStatus.AUTO_VERIFIED
        above_no_cert = [doc_with(DocumentSlot.INVOICE, total_value=Money(600000))]
        assert evaluate_check(defn, FormData(), above_no_cert, SUBMITTED).status \
            is CheckStatus.MANUAL_CHECK
        above_with_cert = above_no_cert + [
            doc_with(DocumentSlot.ENERGY_CERTIFICATE, certificate_number="CE-1")]
        assert evaluate_check(defn, FormData(), above_with_cert, SUBMITTED).status \
            is CheckStatus.AUTO_VERIFIED

    def test_manual_always(self):
        defn = check(Comparator("manual_always"), Selector.form("property_article"))
        outcome = evaluate_check(defn, form_with(property_article="12"), [], SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK

    def test_unknown_comparator_rejected(self):
        with pytest.raises(ValueError):
            Comparator("sounds_legit")


class TestFailSafeStatuses:
    def test_absent_operand_is_manual(self):
        defn = check(Comparator("equal_money"),
                     Selector.form("invoice_value"),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"))
        outcome = evaluate_check(defn, form_with(invoice_value=Money(100)), [], SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK
        assert outcome.rhs.state == "absent"

    def test_unreadable_operand_is_manual(self):
        defn = check(Comparator("date_geq"),
                     Selector.doc(DocumentSlot.RECEIPT, "receipt_date"),
                     Selector.doc(DocumentSlot.INVOICE, "invoice_date"))
        docs = [doc_with(DocumentSlot.RECEIPT,
                         receipt_date=ExtractedValue.unreadable("type_mismatch", "soon")),
                doc_with(DocumentSlot.INVOICE, invoice_date=dt.date(2023, 1, 1))]
        outcome = evaluate_check(defn, FormData(), docs, SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK
        assert "unreadable" in outcome.message

    def test_unsupported_document_status(self):
        defn = check(Comparator("equal_money"),
                     Selector.form("invoice_value"),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"))
        notice = UnsupportedNotice(path="fatura.docx", reason="unsupported_extension",
                                   message="manual review", slot=DocumentSlot.INVOICE)
        outcome = evaluate_check(defn, form_with(invoice_value=Money(100)), [],
                                 SUBMITTED, unsupported=[notice])
        assert outcome.status is CheckStatus.UNSUPPORTED

    def test_form_warning_is_manual(self):
        defn = check(Comparator("equal_money"),
                     Selector.form("invoice_value"),
                     Selector.doc(DocumentSlot.INVOICE, "total_value"))
        form = FormData()
        form.declared["invoice_value"] = DeclaredValue(
            "invoice_value", "money", "mil", value="mil", warning="unparseable money")
        docs = [doc_with(DocumentSlot.INVOICE, total_value=Money(100))]
        outcome = evaluate_check(defn, form, docs, SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK

    def test_unit_assumed_power_is_manual(self):
        defn = check(Comparator("in_range_pct", lo_pct=100, hi_pct=100),
                     Selector.form("declared_peak_power"),
                     Selector.doc(DocumentSlot.PRIOR_COMMUNICATION, "generator_power_mcp"))
        docs = [doc_with(DocumentSlot.PRIOR_COMMUNICATION,
                         generator_power_mcp=PowerValue(3, unit_assumed=True))]
        outcome = evaluate_check(defn, form_with(declared_peak_power=3), docs, SUBMITTED)
        assert outcome.status is CheckStatus.MANUAL_CHECK

    def test_auto_implies_present_operands(self, catalog):
        # fail-safe soundness, re-checked from the evidence itself
        world = build_world("app_x", T4, catalog, random.Random(3), consistency=0.8)
        bundle, docs = world_bundle_and_docs(world)
        outcomes = evaluate_application(bundle, docs, catalog.checks)
        for batch in outcomes.values():
            for outcome in batch:
                if outcome.status is CheckStatus.AUTO_VERIFIED:
                    assert outcome.lhs.state == "present"
                    assert outcome.rhs.state in ("present", "absent")


class TestCatalog:
    def test_minimum_paper_anchored_checks(self, catalog):
        ids = {c.check_id for c in catalog.checks}
        for required in (
            "common.receipt_after_invoice",
            "common.receipt_before_submission",
            "common.invoice_receipt_amounts_match",
            "common.tax_id_matches_invoice",
            "elig.invoice_date_not_before_program",
            "typ.prior_comm_start_date",
            "typ.battery_power_recommended_range",
            "elig.windows_class_a_plus",
            "elig.certificate_required_above_5000",
            "elig.no_owner_seller_conflict",
        ):
            assert required in ids

    def test_solar_catalog_content(self, catalog):
        ids = {c.check_id for c in catalog.for_typology(T4)}
        assert "typ.prior_comm_start_date" in ids
        assert "typ.battery_power_recommended_range" in ids
        assert "elig.windows_class_a_plus" not in ids

    def test_windows_catalog_content(self, catalog):
        ids = {c.check_id for c in catalog.for_typology(T1)}
        assert "elig.windows_class_a_plus" in ids
        assert "elig.battery_power_min" not in ids

    def test_at_least_30_checks_per_typology(self, catalog):
        from claimcheck.ingest import VALID_TYPOLOGIES
        for tid in VALID_TYPOLOGIES:
            assert len(catalog.for_typology(TypologyId.parse(tid))) >= 30, tid

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_and_pure_python_loaders_build_the_same_catalog(self, catalog):
        from importlib import resources

        text = resources.files("claimcheck").joinpath("catalog.yaml").read_text("utf-8")
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == pure
        assert parse_catalog(fast) == parse_catalog(pure) == catalog

    def test_for_typology_returns_applicable_only(self, catalog):
        checks = catalog.for_typology(T1)
        assert checks and all(c.applicable(T1) for c in checks)

    def test_excluded_entries_listed_not_evaluated(self, catalog):
        assert {e.reason for e in catalog.excluded} == {"external_system", "visual_comparison"}
        evaluated_ids = {c.check_id for c in catalog.checks}
        assert not any(e.check_id in evaluated_ids for e in catalog.excluded)

    def test_unique_check_ids(self, catalog):
        ids = [c.check_id for c in catalog.checks]
        assert len(ids) == len(set(ids))

    def test_bad_selector_rejected(self):
        data = {"version": "x", "checks": [{
            "id": "bad.check", "report": "eligibility", "description": "d",
            "applies_to": ["*"], "lhs": {"doc": ["invoice", "nonexistent_tag"]},
            "comparator": {"kind": "present"},
        }]}
        with pytest.raises(CatalogError, match="nonexistent_tag"):
            parse_catalog(data)

    @pytest.mark.parametrize("pattern", ["6", "3.4"])
    def test_pattern_matching_no_typology_rejected(self, pattern):
        data = {"version": "x", "checks": [{
            "id": "bad.check", "report": "eligibility", "description": "d",
            "applies_to": [pattern], "lhs": {"form": "invoice_value"},
            "comparator": {"kind": "present"},
        }]}
        with pytest.raises(CatalogError, match=f"pattern '{pattern}'"):
            parse_catalog(data)

    def test_patterns_matching_a_typology_load(self):
        data = {"version": "x", "checks": [{
            "id": "ok.check", "report": "eligibility", "description": "d",
            "applies_to": ["*", "2", "3.1", "2.1.1"], "lhs": {"form": "invoice_value"},
            "comparator": {"kind": "present"},
        }]}
        assert parse_catalog(data).checks[0].applies_to == ("*", "2", "3.1", "2.1.1")

    @pytest.mark.parametrize("key, value", [
        ("report", "no_such_report"),
        ("lhs", {"doc": "invoice"}),
        ("lhs", {"const": {"value": 1}}),
        ("comparator", "present"),
    ])
    def test_malformed_entry_key_named(self, key, value):
        entry = {"id": "bad.check", "report": "eligibility", "description": "d",
                 "lhs": {"form": "invoice_value"}, "comparator": {"kind": "present"}}
        data = {"version": "x", "checks": [entry | {key: value}]}
        with pytest.raises(CatalogError, match=rf"^checks\[0\] \(id 'bad.check'\): "
                                               rf"malformed '{key}'"):
            parse_catalog(data)

    def test_unknown_form_field_rejected(self):
        data = {"version": "x", "checks": [{
            "id": "bad.check", "report": "eligibility", "description": "d",
            "applies_to": ["*"], "lhs": {"form": "no_such_field"},
            "comparator": {"kind": "present"},
        }]}
        with pytest.raises(CatalogError, match="no_such_field"):
            parse_catalog(data)


class TestEvaluateApplication:
    def test_fully_consistent_app_all_auto(self, catalog):
        world = build_world("app_ok", T4, catalog, random.Random(1), consistency=1.0)
        bundle, docs = world_bundle_and_docs(world)
        outcomes = evaluate_application(bundle, docs, catalog.checks)
        flat = [o for batch in outcomes.values() for o in batch]
        assert flat and all(o.status is CheckStatus.AUTO_VERIFIED for o in flat)

    def test_grouping_and_order(self, catalog):
        world = build_world("app_ok", T1, catalog, random.Random(2), consistency=1.0)
        bundle, docs = world_bundle_and_docs(world)
        outcomes = evaluate_application(bundle, docs, catalog.checks)
        catalog_order = [c.check_id for c in catalog.for_typology(T1)
                         if c.report is ReportKind.ELIGIBILITY]
        assert [o.check_id for o in outcomes[ReportKind.ELIGIBILITY]] == catalog_order

    def test_corrupted_amount_flips_only_amount_checks(self, catalog):
        rng = random.Random(5)
        world = build_world("app_ok", T4, catalog, rng, consistency=1.0)
        bundle, docs = world_bundle_and_docs(world)
        baseline = {o.check_id: o.status
                    for batch in evaluate_application(bundle, docs, catalog.checks).values()
                    for o in batch}

        world2 = build_world("app_ok", T4, catalog, random.Random(5), consistency=1.0)
        world2.doc("invoice").tags["total_value"] = Money(
            world2.doc("invoice").tags["total_value"].amount_cents + 100)
        bundle2, docs2 = world_bundle_and_docs(world2)
        changed = {o.check_id: o.status
                   for batch in evaluate_application(bundle2, docs2, catalog.checks).values()
                   for o in batch}
        flipped = {cid for cid in baseline if baseline[cid] != changed[cid]}
        assert flipped == {"common.declared_expense_matches_invoice",
                           "common.invoice_receipt_amounts_match"}

    def test_windows_app_has_no_battery_checks(self, catalog):
        world = build_world("app_w", T1, catalog, random.Random(4), consistency=1.0)
        bundle, docs = world_bundle_and_docs(world)
        outcomes = evaluate_application(bundle, docs, catalog.checks)
        ids = {o.check_id for batch in outcomes.values() for o in batch}
        assert "elig.battery_power_min" not in ids
        assert "elig.windows_class_a_plus" in ids

    def test_determinism_across_runs(self, catalog):
        world = build_world("app_d", T4, catalog, random.Random(9), consistency=0.7)
        bundle, docs = world_bundle_and_docs(world)
        first = evaluate_application(bundle, docs, catalog.checks)
        second = evaluate_application(bundle, docs, catalog.checks)
        assert first == second


def test_suppression_rate_definition():
    # auto-verified over all checks: 3 / (3 auto + 2 manual + 1 unsupported) = 0.5
    counts = {s.value: 0 for s in CheckStatus}
    assert MetricsBlock(status_counts=dict(counts)).suppression_rate is None
    counts.update(auto_verified=3, manual_check=2, unsupported=1)
    assert MetricsBlock(status_counts=counts).suppression_rate == 0.5


class TestOracleAgreement:
    def test_engine_matches_oracle_on_generated_worlds(self, catalog):
        settings = EngineSettings()
        for seed in range(40):
            rng = random.Random(f"oracle:{seed}")
            typology = TypologyId.parse(rng.choice(
                ("1", "2.1.1", "3.1", "4", "5.1")))
            world = build_world(f"app_{seed}", typology, catalog, rng,
                                consistency=rng.uniform(0.3, 1.0))
            bundle, docs = world_bundle_and_docs(world)
            from claimcheck.rules import submission_date_of
            submission = submission_date_of(bundle.form)
            for defn in catalog.for_typology(typology):
                got = evaluate_check(defn, bundle.form, docs, submission,
                                     unsupported=bundle.unsupported, settings=settings)
                want = oracle_evaluate(defn, bundle.form, docs, submission,
                                       unsupported=bundle.unsupported)
                assert got.status.value == want, (seed, defn.check_id)


class TestOnePath:
    """``evaluate_application`` is ``evaluate_check`` over the typology's
    checks, outcome for outcome and field for field."""

    @staticmethod
    def _worlds(catalog):
        from claimcheck.ingest import VALID_TYPOLOGIES

        for tid in VALID_TYPOLOGIES:
            typology = TypologyId.parse(tid)
            for variant in ("plain", "unsupported", "second_doc"):
                rng = random.Random(f"one-path:{tid}:{variant}")
                world = build_world(f"app_{variant}", typology, catalog, rng,
                                    consistency=rng.uniform(0.3, 1.0))
                if variant == "unsupported":
                    for spec in rng.sample(world.docs, k=3):
                        spec.unsupported = True
                elif variant == "second_doc":
                    # a second invoice whose values disagree with the first
                    first = world.doc("invoice")
                    tags = dict(first.tags)
                    tags["total_value"] = Money(99_999_999)
                    world.docs.append(dataclasses.replace(
                        first, filename="fatura_2.pdf", tags=tags))
                bundle, docs = world_bundle_and_docs(world)
                yield typology, variant, bundle, docs

    def test_application_equals_each_check_evaluated_alone(self, catalog):
        from claimcheck.rules import submission_date_of

        settings = EngineSettings()
        variants = set()
        for typology, variant, bundle, docs in self._worlds(catalog):
            if variant == "unsupported":
                assert bundle.unsupported
            if variant == "second_doc":
                assert sum(d.doc.slot is DocumentSlot.INVOICE for d in docs) == 2
            variants.add(variant)
            submission = submission_date_of(bundle.form)
            want = {kind: [] for kind in ReportKind}
            for defn in catalog.for_typology(typology):
                want[defn.report].append(evaluate_check(
                    defn, bundle.form, docs, submission,
                    unsupported=bundle.unsupported, settings=settings))
            assert evaluate_application(bundle, docs, catalog.checks, settings) == want
            assert evaluate_application(bundle, docs, catalog.for_typology(typology),
                                        settings) == want
        assert variants == {"plain", "unsupported", "second_doc"}

    def test_application_matches_oracle(self, catalog):
        from claimcheck.rules import submission_date_of

        by_id = {c.check_id: c for c in catalog.checks}
        statuses = set()
        for _typology, _variant, bundle, docs in self._worlds(catalog):
            submission = submission_date_of(bundle.form)
            for batch in evaluate_application(bundle, docs, catalog.checks).values():
                for outcome in batch:
                    want = oracle_evaluate(by_id[outcome.check_id], bundle.form, docs,
                                           submission, unsupported=bundle.unsupported)
                    assert outcome.status.value == want, (bundle.app_id, outcome.check_id)
                    statuses.add(want)
        assert statuses == {"auto_verified", "manual_check", "unsupported"}
