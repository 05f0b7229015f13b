import gc
import html
import os
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def labels_of(*rows: str) -> dict:
    """The label tables of a label file with ``rows`` under its header."""
    return read_labels_csv("\n".join(["app_id,check_id,real_error,category", *rows]) + "\n")


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

    @pytest.mark.parametrize("row, message", [
        ("a,c9,false", "^label references unknown outcome: a/c9$"),
        # an application with no reports is named as such, not by one of its checks
        ("ghost,c0,false", "^label references application ghost, which has no reports "),
    ])
    def test_unknown_label_rejected(self, row, message):
        records = [record("a", "1", ["auto_verified"])]
        with pytest.raises(LabelError, match=message):
            RunTotals.of(records, labels_of("a,c0,false", row)).metrics()

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
        labels = labels_of("a,ok,false", "a,fp,true", "a,fn,false", "a,minor,true,minor_error",
                           "a,read,false", "a,caught,true")
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
        labels = labels_of(*(f"a,c{i},false" for i in range(4)))
        taxonomy = RunTotals.of(records, labels).metrics()["taxonomy"]
        assert taxonomy["false_positive"] == 0
        assert taxonomy["false_negative"] == 0
        assert taxonomy["accuracy"] == 1.0


_APPS = ["a", "b", "c"]
_CHECKS = ["c0", "c1", "c2"]
_STATE = st.fixed_dictionaries({"state": st.sampled_from(["present", "absent", "unreadable"])})
_OUTCOME = st.fixed_dictionaries({
    "check_id": st.sampled_from(_CHECKS),
    "status": st.sampled_from([status.value for status in CheckStatus]),
    "lhs": _STATE,
    "rhs": _STATE,
})
# (app_id, check_id, real_error, category) rows; "d" and "c9" occur in no run
_LABEL_ROWS = st.lists(
    st.tuples(st.sampled_from([*_APPS, "d"]), st.sampled_from([*_CHECKS, "c9"]),
              st.booleans(), st.sampled_from(["", "minor_error", "typo"])),
    unique_by=lambda row: row[:2], max_size=12)


def _reference_taxonomy(records: list[AppRecord], rows: list[tuple]) -> dict | tuple:
    """The taxonomy counted over (app_id, check_id) keys, the last outcome of
    a repeated check winning; or the first unknown label, in sorted order."""
    labels = {(app_id, check_id): (real_error, category)
              for app_id, check_id, real_error, category in rows}
    buckets: dict[tuple[str, str], str] = {}
    for rec in records:
        for outcome in rec.outcomes:
            key = (rec.app_id, outcome["check_id"])
            if key not in labels:
                continue
            real_error, category = labels[key]
            if "unreadable" in (outcome["lhs"]["state"], outcome["rhs"]["state"]):
                buckets[key] = "reading_error"
            elif outcome["status"] == "auto_verified":
                buckets[key] = "false_positive" if real_error else "correct"
            elif category == "minor_error":
                buckets[key] = "minor_error"
            else:
                buckets[key] = "correct" if real_error else "false_negative"
    unknown = sorted(set(labels) - set(buckets))
    if unknown:
        return unknown[0]
    return {bucket: list(buckets.values()).count(bucket)
            for bucket in ("correct", "minor_error", "false_positive", "false_negative",
                           "reading_error")}


@settings(max_examples=300, deadline=None)
@given(apps=st.lists(st.sampled_from(_APPS), unique=True).map(sorted),
       outcomes=st.lists(st.lists(_OUTCOME, max_size=6), min_size=len(_APPS),
                         max_size=len(_APPS)),
       rows=_LABEL_ROWS)
def test_taxonomy_equals_the_per_check_reference(apps, outcomes, rows):
    records = [AppRecord(app_id=app_id, typology="1", outcomes=app_outcomes)
               for app_id, app_outcomes in zip(apps, outcomes)]
    labels = labels_of(*(f"{app_id},{check_id},{str(real_error).lower()},{category}"
                         for app_id, check_id, real_error, category in rows))
    expected = _reference_taxonomy(records, rows)
    totals = RunTotals.of(records, labels)
    if isinstance(expected, tuple):
        app_id, check_id = expected
        with pytest.raises(LabelError) as error:
            totals.metrics()
        if app_id in apps:
            assert str(error.value) == f"label references unknown outcome: {app_id}/{check_id}"
        else:
            assert str(error.value).startswith(f"label references application {app_id}, ")
        return
    taxonomy = totals.metrics()["taxonomy"]
    assert {bucket: taxonomy[bucket] for bucket in expected} == expected
    assert taxonomy["labeled_total"] == len(rows)


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
        totals = RunTotals(labels_of("a,c0,false"))
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
    assert read_labels_csv(text) == {"a": {"c1": (True, None, 2),
                                           "c2": (False, "minor_error", 3)}}


def test_read_labels_csv_requires_columns():
    with pytest.raises(LabelError):
        read_labels_csv("foo,bar\n1,2\n")


def test_read_labels_csv_skips_blank_lines_and_reads_a_missing_category_as_none():
    text = "app_id,check_id,real_error,category\n\na,c1,YES\n\na,c2,0,minor_error\n"
    assert read_labels_csv(text) == {"a": {"c1": (True, None, 3),
                                           "c2": (False, "minor_error", 5)}}
