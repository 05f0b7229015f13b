"""Tri-state evaluation of verification checks.

Every check compares two operands (declared form field, extracted
document tag, constant or the application submission date) and yields
one of the statuses below; a check outside an application's typology is
not evaluated at all. The engine is fail-safe by construction: a check
auto-verifies only when both operands were actually read and the
comparison holds; anything missing, unreadable or merely suspicious is
handed to a human.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from enum import Enum

from .extract import ExtractedDocument, ValueState
from .ingest import ApplicationBundle, DocumentSlot, TypologyId, UnsupportedNotice
from .normalize import (
    FormData,
    Money,
    PowerValue,
    TaxId,
    format_money,
    fuzzy_score,
    normalize_name,
)


class ReportKind(str, Enum):
    ELIGIBILITY = "eligibility"
    COMMON_CORE = "common_core"
    TYPOLOGY = "typology"


class CheckStatus(str, Enum):
    AUTO_VERIFIED = "auto_verified"
    MANUAL_CHECK = "manual_check"
    NOT_APPLICABLE = "not_applicable"  # never given; a zero in every status count
    UNSUPPORTED = "unsupported"


# Reviewer-facing labels for the two actionable statuses.
STATUS_LABELS = {
    CheckStatus.AUTO_VERIFIED: "No Verification Needed",
    CheckStatus.MANUAL_CHECK: "Manual Check",
    CheckStatus.NOT_APPLICABLE: "Not Applicable",
    CheckStatus.UNSUPPORTED: "Unsupported Document",
}


@dataclass(frozen=True)
class Selector:
    """Where an operand comes from: form field, document tag, constant
    or the application submission date."""

    kind: str  # form | doc | const | submission
    form_field: str | None = None
    slot: DocumentSlot | None = None
    tag: str | None = None
    const_type: str | None = None
    const_value: object = None

    @classmethod
    def form(cls, field_id: str) -> "Selector":
        return cls(kind="form", form_field=field_id)

    @classmethod
    def doc(cls, slot: DocumentSlot, tag: str) -> "Selector":
        return cls(kind="doc", slot=slot, tag=tag)

    @classmethod
    def const(cls, const_type: str, value: object) -> "Selector":
        return cls(kind="const", const_type=const_type, const_value=value)

    @classmethod
    def submission(cls) -> "Selector":
        return cls(kind="submission")



COMPARATOR_KINDS = (
    "equal_money",
    "date_geq",
    "date_lt",
    "date_not_before",
    "in_range_pct",
    "text_match",
    "text_distinct",
    "enum_is",
    "present",
    "present_if_rhs_above",
    "manual_always",
)


@dataclass(frozen=True)
class Comparator:
    kind: str
    tolerance_cents: int | None = None
    date: dt.date | None = None
    lo_pct: float | None = None
    hi_pct: float | None = None
    mode: str | None = None  # text_match: exact | fuzzy
    threshold: float | None = None
    variant: str | None = None
    threshold_cents: int | None = None

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ValueError(f"unknown comparator kind {self.kind!r}")


def pattern_matches(pattern: str, tid: str) -> bool:
    """Whether an ``applies_to`` pattern covers typology ``tid``: "*" covers
    every typology, and "3" covers "3" and all of "3.x"."""
    return pattern == "*" or tid == pattern or tid.startswith(pattern + ".")


@dataclass(frozen=True)
class CheckDefinition:
    check_id: str
    report: ReportKind
    description: str
    applies_to: tuple[str, ...]  # typology patterns: "*", "2", "3.1", ...
    comparator: Comparator
    lhs: Selector
    rhs: Selector | None = None
    note: str = ""

    def applicable(self, typology: TypologyId) -> bool:
        tid = str(typology)
        for pattern in self.applies_to:
            if pattern_matches(pattern, tid):
                return True
        return False


@dataclass(frozen=True)
class Evidence:
    source: str
    state: str  # present | absent | unreadable | unsupported
    rendered: str | None = None
    detail: str | None = None


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    description: str
    status: CheckStatus
    lhs: Evidence
    rhs: Evidence
    message: str


@dataclass(frozen=True)
class EngineSettings:
    fuzzy_threshold: float = 0.85
    amount_tolerance_cents: int = 0


DEFAULT_SETTINGS = EngineSettings()


@dataclass
class _Resolved:
    state: str  # present | absent | unreadable | unsupported
    value: object = None
    rendered: str | None = None
    source: str = "-"
    detail: str | None = None
    warning: str | None = None

    def evidence(self) -> Evidence:
        return Evidence(source=self.source, state=self.state,
                        rendered=self.rendered, detail=self.detail or self.warning)


def render_value(value: object) -> str:
    if isinstance(value, Money):
        return format_money(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, PowerValue):
        return f"{value.watts} W"
    if isinstance(value, TaxId):
        return value.digits
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _resolve(selector: Selector, form: FormData,
             docs_by_slot: dict[DocumentSlot, ExtractedDocument],
             submission_date: dt.date | None,
             unsupported_slots: dict[DocumentSlot, UnsupportedNotice]) -> _Resolved:
    if selector.kind == "const":
        return _Resolved(state="present", value=selector.const_value,
                         rendered=render_value(selector.const_value), source="constant")

    if selector.kind == "submission":
        if submission_date is None:
            return _Resolved(state="absent", source="form:submission_date",
                             detail="submission date not declared or unparseable")
        return _Resolved(state="present", value=submission_date,
                         rendered=submission_date.isoformat(), source="form:submission_date")

    if selector.kind == "form":
        source = f"form:{selector.form_field}"
        declared = form.get(selector.form_field)
        if declared is None:
            return _Resolved(state="absent", source=source, detail="form field not declared")
        if declared.warning:
            return _Resolved(state="unreadable", rendered=declared.raw, source=source,
                             detail=declared.warning)
        return _Resolved(state="present", value=declared.value,
                         rendered=render_value(declared.value), source=source)

    # document tag
    doc = docs_by_slot.get(selector.slot)
    if doc is None:
        notice = unsupported_slots.get(selector.slot)
        if notice is not None:
            return _Resolved(state="unsupported", source=f"{selector.slot.value}:{selector.tag}",
                             detail=f"document only available as unsupported file: {notice.message}")
        return _Resolved(state="absent", source=f"{selector.slot.value}:{selector.tag}",
                         detail=f"no {selector.slot.value} document in the bundle")
    source = f"{selector.slot.value}:{selector.tag} ({doc.doc.name})"
    extracted = doc.fields.get(selector.tag)
    if extracted is None or extracted.state is ValueState.ABSENT:
        return _Resolved(state="absent", source=source, detail="tag not found in document")
    if extracted.state is ValueState.UNREADABLE:
        return _Resolved(state="unreadable", rendered=extracted.raw, source=source,
                         detail=f"unreadable value ({extracted.reason})")
    warning = None
    if isinstance(extracted.value, PowerValue) and extracted.value.unit_assumed:
        warning = "power value had no unit; watts assumed"
    return _Resolved(state="present", value=extracted.value,
                     rendered=render_value(extracted.value), source=source, warning=warning)


def _as_text(value: object) -> str | None:
    if isinstance(value, TaxId):
        return value.digits
    if isinstance(value, str):
        return normalize_name(value).canonical
    return None


def _as_magnitude(value: object) -> float | None:
    if isinstance(value, PowerValue):
        return float(value.watts)
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


class _TypeMismatch(Exception):
    pass


def _compare(comp: Comparator, lhs: object, rhs: object, settings: EngineSettings) -> bool:
    """Apply a comparator to two present typed values."""
    if comp.kind == "equal_money":
        if not isinstance(lhs, Money) or not isinstance(rhs, Money):
            raise _TypeMismatch("expected monetary values on both sides")
        if lhs.currency != rhs.currency:
            raise _TypeMismatch("currency mismatch")
        tolerance = comp.tolerance_cents
        if tolerance is None:
            tolerance = settings.amount_tolerance_cents
        return abs(lhs.amount_cents - rhs.amount_cents) <= tolerance

    if comp.kind in ("date_geq", "date_lt", "date_not_before"):
        rhs_date = comp.date if comp.kind == "date_not_before" else rhs
        if not isinstance(lhs, dt.date) or not isinstance(rhs_date, dt.date):
            raise _TypeMismatch("expected dates on both sides")
        if comp.kind == "date_lt":
            return lhs < rhs_date
        return lhs >= rhs_date

    if comp.kind == "in_range_pct":
        lhs_n, rhs_n = _as_magnitude(lhs), _as_magnitude(rhs)
        if lhs_n is None or rhs_n is None:
            raise _TypeMismatch("expected numeric values on both sides")
        if comp.lo_pct is not None and lhs_n < comp.lo_pct / 100.0 * rhs_n:
            return False
        if comp.hi_pct is not None and lhs_n > comp.hi_pct / 100.0 * rhs_n:
            return False
        return True

    if comp.kind in ("text_match", "text_distinct"):
        lhs_t, rhs_t = _as_text(lhs), _as_text(rhs)
        if lhs_t is None or rhs_t is None:
            raise _TypeMismatch("expected text on both sides")
        if comp.kind == "text_distinct":
            return lhs_t != rhs_t
        if comp.mode == "fuzzy":
            threshold = comp.threshold if comp.threshold is not None else settings.fuzzy_threshold
            return fuzzy_score(lhs_t, rhs_t) >= threshold
        return lhs_t == rhs_t

    if comp.kind == "enum_is":
        return str(lhs) == comp.variant

    if comp.kind == "present":
        return True  # reached only when the operand resolved as present

    raise _TypeMismatch(f"comparator {comp.kind} not applicable here")


def evaluate_check(defn: CheckDefinition, form: FormData,
                   docs: list[ExtractedDocument], submission_date: dt.date | None,
                   unsupported: list[UnsupportedNotice] = (),
                   settings: EngineSettings = DEFAULT_SETTINGS) -> CheckOutcome:
    """Evaluate one check. Pure function; all failure modes are statuses."""
    docs_by_slot: dict[DocumentSlot, ExtractedDocument] = {}
    for doc in docs:
        docs_by_slot.setdefault(doc.doc.slot, doc)
    unsupported_slots = {n.slot: n for n in unsupported}

    lhs = _resolve(defn.lhs, form, docs_by_slot, submission_date, unsupported_slots)
    if defn.rhs is not None:
        rhs = _resolve(defn.rhs, form, docs_by_slot, submission_date, unsupported_slots)
    else:
        rhs = _Resolved(state="present", source="-", rendered=None)

    def outcome(status: CheckStatus, message: str) -> CheckOutcome:
        return CheckOutcome(defn.check_id, defn.description, status,
                            lhs.evidence(), rhs.evidence(), message)

    if defn.comparator.kind == "manual_always":
        return outcome(CheckStatus.MANUAL_CHECK, "always requires manual review")

    if defn.comparator.kind == "present_if_rhs_above":
        # Conditional presence: the rhs amount decides whether the lhs
        # document field must exist at all.
        if rhs.state == "unsupported":
            return outcome(CheckStatus.UNSUPPORTED, "reference document unsupported")
        if rhs.state != "present":
            return outcome(CheckStatus.MANUAL_CHECK, f"reference amount {rhs.state}")
        if not isinstance(rhs.value, Money):
            return outcome(CheckStatus.MANUAL_CHECK, "reference value is not an amount")
        threshold = defn.comparator.threshold_cents or 0
        if rhs.value.amount_cents <= threshold:
            return outcome(CheckStatus.AUTO_VERIFIED,
                           f"not required below {format_money(Money(threshold))}")
        if lhs.state == "unsupported":
            return outcome(CheckStatus.UNSUPPORTED, "required document unsupported")
        if lhs.state == "present":
            return outcome(CheckStatus.AUTO_VERIFIED, "required document present")
        return outcome(CheckStatus.MANUAL_CHECK,
                       f"required above {format_money(Money(threshold))} but {lhs.state}")

    for side in (lhs, rhs):
        if side.state == "unsupported":
            return outcome(CheckStatus.UNSUPPORTED,
                           "supporting document exists only as an unsupported file")
    for side, label in ((lhs, "left"), (rhs, "right")):
        if side.state == "unreadable":
            return outcome(CheckStatus.MANUAL_CHECK, f"{label} value unreadable: {side.detail}")
    for side, label in ((lhs, "left"), (rhs, "right")):
        if side.state == "absent":
            return outcome(CheckStatus.MANUAL_CHECK, f"{label} value missing: {side.detail}")
    for side in (lhs, rhs):
        if side.warning:
            return outcome(CheckStatus.MANUAL_CHECK, side.warning)

    try:
        holds = _compare(defn.comparator, lhs.value, rhs.value, settings)
    except _TypeMismatch as exc:
        return outcome(CheckStatus.MANUAL_CHECK, f"cannot compare: {exc}")
    if holds:
        return outcome(CheckStatus.AUTO_VERIFIED, "values consistent")
    return outcome(CheckStatus.MANUAL_CHECK, "values inconsistent")


def submission_date_of(form: FormData) -> dt.date | None:
    declared = form.get("submission_date")
    if declared is None or declared.warning or not isinstance(declared.value, dt.date):
        return None
    return declared.value


def evaluate_application(bundle: ApplicationBundle, docs: list[ExtractedDocument],
                         catalog: list[CheckDefinition],
                         settings: EngineSettings = DEFAULT_SETTINGS,
                         ) -> dict[ReportKind, list[CheckOutcome]]:
    """Evaluate every applicable catalog check once, grouped by report,
    preserving catalog order."""
    submission = submission_date_of(bundle.form)
    results: dict[ReportKind, list[CheckOutcome]] = {kind: [] for kind in ReportKind}
    for defn in catalog:
        if not defn.applicable(bundle.typology):
            continue
        outcome = evaluate_check(defn, bundle.form, docs, submission,
                                 unsupported=bundle.unsupported, settings=settings)
        results[defn.report].append(outcome)
    return results
