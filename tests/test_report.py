import gc
import html
import os
import weakref
from pathlib import Path

import pytest

from claimcheck.ingest import DocumentSlot, UnsupportedNotice
from claimcheck.metrics import (
    AppRecord,
    LabelError,
    RunTotals,
    cost_time_summary,
    read_labels_csv,
    slot_bucket,
)
from claimcheck.report import HtmlEscapes, canonical_json_bytes, render_html, report_dict
from claimcheck.rules import CheckOutcome, CheckStatus, Evidence, ReportKind

GOLDEN_DIR = Path(__file__).parent / "golden"


def outcome(check_id: str, status: CheckStatus,
            lhs_state: str = "present", rhs_state: str = "present",
            lhs_rendered: str | None = "1.500,00 €",
            rhs_rendered: str | None = "1.500,00 €") -> CheckOutcome:
    return CheckOutcome(
        check_id=check_id,
        description=f"verification {check_id}",
        status=status,
        lhs=Evidence(source="form:invoice_value", state=lhs_state, rendered=lhs_rendered),
        rhs=Evidence(source="invoice:total_value (fatura.pdf)", state=rhs_state,
                     rendered=rhs_rendered),
        message="values consistent" if status is CheckStatus.AUTO_VERIFIED else "flagged",
    )


SAMPLE_OUTCOMES = [
    outcome("elig.a", CheckStatus.AUTO_VERIFIED),
    outcome("elig.b", CheckStatus.AUTO_VERIFIED),
    outcome("elig.c", CheckStatus.AUTO_VERIFIED),
    outcome("elig.d", CheckStatus.MANUAL_CHECK, rhs_state="absent", rhs_rendered=None),
]


def sample_report(outcomes: list[CheckOutcome] = SAMPLE_OUTCOMES) -> dict:
    notices = [UnsupportedNotice(path="app_1/manual.docx", reason="unsupported_extension",
                                 message="unsupported file type '.docx'",
                                 slot=DocumentSlot.OTHER)]
    return report_dict("app_00001", ReportKind.ELIGIBILITY, outcomes, notices, "1.0")


class TestRenderJson:
    def test_byte_identical_across_calls(self):
        assert canonical_json_bytes(sample_report()) == canonical_json_bytes(sample_report())

    def test_empty_outcomes_valid(self):
        payload = canonical_json_bytes(report_dict("a", ReportKind.TYPOLOGY, [], [], "0"))
        assert b'"outcomes":[]' in payload

    def test_golden_file(self):
        golden_path = GOLDEN_DIR / "eligibility.json"
        rendered = canonical_json_bytes(sample_report())
        if os.environ.get("UPDATE_GOLDEN"):
            golden_path.parent.mkdir(exist_ok=True)
            golden_path.write_bytes(rendered)
        assert rendered == golden_path.read_bytes()


class TestRenderHtml:
    def test_one_highlighted_row(self):
        html = render_html(sample_report()).decode()
        assert html.count('class="manual"') == 1
        assert "No Verification Needed" in html

    def test_all_auto_banner(self):
        html = render_html(sample_report(SAMPLE_OUTCOMES[:3])).decode()
        assert "No verification needed for this report." in html
        assert html.count("No Verification Needed") == 3
        unsupported = outcome("elig.u", CheckStatus.UNSUPPORTED, rhs_state="unsupported")
        html = render_html(sample_report([*SAMPLE_OUTCOMES[:3], unsupported])).decode()
        assert "No verification needed for this report." not in html

    def test_zero_checks_valid_page(self):
        html = render_html(report_dict("a", ReportKind.COMMON_CORE, [], [], "0")).decode()
        assert "<table>" in html and "</html>" in html

    def test_unsupported_notices_section(self):
        html = render_html(sample_report()).decode()
        assert "Unsupported files" in html
        assert "manual.docx" in html

    def test_self_contained(self):
        html = render_html(sample_report()).decode()
        assert "http://" not in html and "https://" not in html

    @pytest.mark.parametrize("field", [
        "description", "label", "rendered", "source", "detail", "message",
        "notice path", "notice reason", "notice message", "app_id", "catalog_version"])
    def test_html_escaping(self, field):
        value = f"<script>{field}</script> & \"{field}\" '{field}'"
        report = sample_report([outcome("elig.x", CheckStatus.MANUAL_CHECK)])
        entry = report["outcomes"][0]
        if field in ("description", "label", "message"):
            entry[field] = value
        elif field in ("rendered", "source", "detail"):
            entry["rhs"][field] = value
        elif field.startswith("notice "):
            report["unsupported"][0][field.removeprefix("notice ")] = value
        else:
            report[field] = value
        # the pages of one application share one escape memo
        escapes = HtmlEscapes()
        for _ in range(2):
            page = render_html(report, escapes).decode()
            assert page.count(html.escape(value)) == 1 + (field == "app_id")  # title and h1
            assert value not in page and "<script>" not in page

    def test_golden_html(self):
        golden_path = GOLDEN_DIR / "eligibility.html"
        rendered = render_html(sample_report())
        if os.environ.get("UPDATE_GOLDEN"):
            golden_path.parent.mkdir(exist_ok=True)
            golden_path.write_bytes(rendered)
        assert rendered == golden_path.read_bytes()


def record(app_id: str, typology: str, statuses: list[str],
           metas: list[dict] | None = None) -> AppRecord:
    outcomes = [
        {"check_id": f"c{i}", "status": status,
         "lhs": {"state": "present"}, "rhs": {"state": "present"}}
        for i, status in enumerate(statuses)
    ]
    return AppRecord(app_id=app_id, typology=typology, outcomes=outcomes, metas=metas or [])


class TestAggregateMetrics:
    def test_count_conservation(self):
        records = [record("a", "1", ["auto_verified"] * 3 + ["manual_check"]),
                   record("b", "4", ["auto_verified", "unsupported", "manual_check"])]
        summary = RunTotals.of(records).metrics()
        counts = summary["total"]["status_counts"]
        assert counts == {"auto_verified": 4, "manual_check": 2, "unsupported": 1}
        assert summary["total"]["checks_total"] == 7
        assert summary["total"]["suppression_rate"] == pytest.approx(4 / 7)

    def test_per_typology_split(self):
        records = [record("a", "1", ["auto_verified"]),
                   record("b", "1", ["manual_check"]),
                   record("c", "4", ["auto_verified"])]
        summary = RunTotals.of(records).metrics()
        assert summary["per_typology"]["1"]["applications"] == 2
        assert summary["per_typology"]["4"]["suppression_rate"] == 1.0

    def test_adding_manual_never_raises_suppression(self):
        base = [record("a", "1", ["auto_verified"] * 5)]
        with_manual = [record("a", "1", ["auto_verified"] * 5 + ["manual_check"])]
        assert RunTotals.of(with_manual).metrics()["total"]["suppression_rate"] < \
            RunTotals.of(base).metrics()["total"]["suppression_rate"]

    def test_unknown_label_rejected(self):
        records = [record("a", "1", ["auto_verified"])]
        labels = {("ghost", "c0"): {"real_error": False, "category": None}}
        with pytest.raises(LabelError, match="ghost"):
            RunTotals.of(records, labels).metrics()

    def test_taxonomy_buckets(self):
        outcomes = [
            {"check_id": "ok", "status": "auto_verified",
             "lhs": {"state": "present"}, "rhs": {"state": "present"}},
            {"check_id": "fp", "status": "auto_verified",
             "lhs": {"state": "present"}, "rhs": {"state": "present"}},
            {"check_id": "fn", "status": "manual_check",
             "lhs": {"state": "present"}, "rhs": {"state": "present"}},
            {"check_id": "minor", "status": "manual_check",
             "lhs": {"state": "present"}, "rhs": {"state": "present"}},
            {"check_id": "read", "status": "manual_check",
             "lhs": {"state": "unreadable"}, "rhs": {"state": "present"}},
            {"check_id": "caught", "status": "manual_check",
             "lhs": {"state": "present"}, "rhs": {"state": "present"}},
        ]
        records = [AppRecord(app_id="a", typology="1", outcomes=outcomes)]
        labels = {
            ("a", "ok"): {"real_error": False, "category": None},
            ("a", "fp"): {"real_error": True, "category": None},
            ("a", "fn"): {"real_error": False, "category": None},
            ("a", "minor"): {"real_error": True, "category": "minor_error"},
            ("a", "read"): {"real_error": False, "category": None},
            ("a", "caught"): {"real_error": True, "category": None},
        }
        taxonomy = RunTotals.of(records, labels).metrics()["taxonomy"]
        assert taxonomy["correct"] == 2  # true auto + true catch
        assert taxonomy["false_positive"] == 1
        assert taxonomy["false_negative"] == 1
        assert taxonomy["minor_error"] == 1
        assert taxonomy["reading_error"] == 1
        assert taxonomy["labeled_total"] == 6
        total = sum(taxonomy[k] for k in
                    ("correct", "minor_error", "false_positive",
                     "false_negative", "reading_error"))
        assert total == taxonomy["labeled_total"]

    def test_all_auto_no_real_errors(self):
        records = [record("a", "1", ["auto_verified"] * 4)]
        labels = {("a", f"c{i}"): {"real_error": False, "category": None} for i in range(4)}
        taxonomy = RunTotals.of(records, labels).metrics()["taxonomy"]
        assert taxonomy["false_positive"] == 0
        assert taxonomy["false_negative"] == 0
        assert taxonomy["accuracy"] == 1.0


class TestRunTotals:
    def test_manifest_counts_list_only_statuses_that_occurred(self):
        metas = [{"slot": "photo", "cost_eur": 0.05, "elapsed_ms": 37000}]
        totals = RunTotals.of([record("a", "1", ["auto_verified"] * 3 + ["manual_check"], metas),
                               record("b", "4", ["auto_verified"])])
        assert totals.counts() == {"applications_processed": 2, "documents": 1,
                                   "checks_by_status": {"auto_verified": 4, "manual_check": 1}}

    def test_a_folded_record_is_not_kept(self):
        class Item(dict):  # a dict that can be weakly referenced
            pass

        state = {"state": "present"}
        folded = AppRecord(app_id="a", typology="1",
                           outcomes=[Item(check_id="c0", status="auto_verified", lhs=state,
                                          rhs=state)],
                           metas=[Item(slot="photo", cost_eur=0.05, elapsed_ms=37000)])
        refs = [weakref.ref(o) for o in (folded, *folded.outcomes, *folded.metas)]
        totals = RunTotals({("a", "c0"): {"real_error": False, "category": None}})
        totals.add(folded)
        del folded
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert totals.metrics()["taxonomy"]["correct"] == 1
        assert totals.cost_time().rows[-1] == ("Total", 0.05, 37.0)


class TestCostTime:
    def test_slot_buckets(self):
        assert slot_bucket("property_registry") == "eligibility"
        assert slot_bucket("invoice") == "common_core"
        assert slot_bucket("photo") == "typology"

    def test_zero_applications(self):
        table = cost_time_summary([])
        assert table.rows == [("Total", 0.0, 0.0)]

    def test_two_apps_same_typology_average(self):
        metas = [
            {"slot": "photo", "cost_eur": 0.05, "elapsed_ms": 37000},
            {"slot": "property_registry", "cost_eur": 0.01, "elapsed_ms": 13000},
            {"slot": "invoice", "cost_eur": 0.02, "elapsed_ms": 29000},
        ]
        records = [record("a", "1", [], metas), record("b", "1", [], metas)]
        table = cost_time_summary(records)
        rows = dict((label, (cost, time_s)) for label, cost, time_s in table.rows)
        assert rows["Typology 1"] == (pytest.approx(0.05), pytest.approx(37.0))
        assert rows["Total"] == (pytest.approx(0.08), pytest.approx(79.0))

    def test_csv_two_decimals(self):
        metas = [{"slot": "photo", "cost_eur": 0.05, "elapsed_ms": 37000}]
        csv_text = cost_time_summary([record("a", "1", [], metas)]).to_csv()
        assert "report,cost_eur,time_s" in csv_text
        assert "Typology 1,0.05,37.00" in csv_text


def test_read_labels_csv():
    text = "app_id,check_id,real_error,category\na,c1,true,\na,c2,false,minor_error\n"
    labels = read_labels_csv(text)
    assert labels[("a", "c1")] == {"real_error": True, "category": None}
    assert labels[("a", "c2")] == {"real_error": False, "category": "minor_error"}


def test_read_labels_csv_requires_columns():
    with pytest.raises(LabelError):
        read_labels_csv("foo,bar\n1,2\n")


def test_read_labels_csv_skips_blank_lines_and_reads_a_missing_category_as_none():
    text = "app_id,check_id,real_error,category\n\na,c1,YES\n\na,c2,0,minor_error\n"
    assert read_labels_csv(text) == {("a", "c1"): {"real_error": True, "category": None},
                                     ("a", "c2"): {"real_error": False, "category": "minor_error"}}
