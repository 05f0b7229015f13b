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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .base import CheckStatus, ReportKind
from .extract import ExtractedDocument, ValueState
from .ingest import ApplicationBundle, DocumentSlot, TypologyId, UnsupportedNotice
from .normalize import (
    FormData,
    Money,
    PowerValue,
    TaxId,
    format_money,
    fuzzy_match,
    normalize_name,
)


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

    def applicable(self, typology: TypologyId | str) -> bool:
        tid = str(typology)  # a str is its own str()
        for pattern in self.applies_to:
            if pattern_matches(pattern, tid):
                return True
        return False


# Evidence and CheckOutcome are built for every check of every application,
# so they are named tuples: immutable, and about half as costly to build as
# a frozen dataclass.
class Evidence(NamedTuple):
    source: str
    state: str  # present | absent | unreadable | unsupported
    rendered: str | None = None
    detail: str | None = None


class CheckOutcome(NamedTuple):
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


# An operand as read: the evidence a report shows for it, and its typed
# value, None unless the evidence's state is "present". A present
# operand's evidence carries a detail only to warn about its value.
_Operand = tuple[Evidence, object]

# the rhs of a check that reads one operand only
_NO_OPERAND: _Operand = (Evidence("-", "present"), None)

# The members read for every check and every tag, looked up once: reading
# a member off its Enum class costs several times a plain name.
_AUTO_VERIFIED = CheckStatus.AUTO_VERIFIED
_MANUAL_CHECK = CheckStatus.MANUAL_CHECK
_UNSUPPORTED = CheckStatus.UNSUPPORTED
_ABSENT = ValueState.ABSENT
_UNREADABLE = ValueState.UNREADABLE
# the verdicts that no operand changes
_ALWAYS_MANUAL = (_MANUAL_CHECK, "always requires manual review")
_CONSISTENT = (_AUTO_VERIFIED, "values consistent")
_INCONSISTENT = (_MANUAL_CHECK, "values inconsistent")


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


def _compare(comp: Comparator, lhs: object, rhs: object, settings: EngineSettings,
             as_text: Callable[[object], str | None]) -> bool:
    """Apply a comparator to two present typed values; ``as_text`` gives a
    value's canonical text, or None when it is no text."""
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
        lhs_t, rhs_t = as_text(lhs), as_text(rhs)
        if lhs_t is None or rhs_t is None:
            raise _TypeMismatch("expected text on both sides")
        if comp.kind == "text_distinct":
            return lhs_t != rhs_t
        if comp.mode == "fuzzy":
            threshold = comp.threshold if comp.threshold is not None else settings.fuzzy_threshold
            return fuzzy_match(lhs_t, rhs_t, threshold)
        return lhs_t == rhs_t

    if comp.kind == "enum_is":
        return str(lhs) == comp.variant

    if comp.kind == "present":
        return True  # reached only when the operand resolved as present

    raise _TypeMismatch(f"comparator {comp.kind} not applicable here")


def _source(selector: Selector) -> str:
    """The source an operand's evidence names; a document tag's adds the
    name of the document it was read from."""
    if selector.kind == "const":
        return "constant"
    if selector.kind == "submission":
        return "form:submission_date"
    if selector.kind == "form":
        return f"form:{selector.form_field}"
    return f"{selector.slot.value}:{selector.tag}"


class CheckPlan(tuple):
    """Checks in the order they are evaluated, with what evaluating them
    needs that no application changes: the distinct selectors they read,
    each check's indices into those, each selector's source and each
    constant's operand. ``typology`` is the typology whose checks these
    are, or None when they were not filtered by one.
    ``Catalog.for_typology`` builds one per typology and keeps it."""

    typology: str | None
    selectors: tuple[Selector | None, ...]
    sources: tuple[str, ...]
    steps: tuple[tuple[CheckDefinition, int, int], ...]
    # the operand of each selector that every application reads alike,
    # None for the others
    fixed: tuple[_Operand | None, ...]

    def __new__(cls, checks: Iterable[CheckDefinition], typology: str | None = None):
        plan = super().__new__(cls, checks)
        plan.typology = typology
        # a missing rhs is one more selector, read as _NO_OPERAND
        index: dict[Selector | None, int] = {None: 0}
        selectors: list[Selector | None] = [None]
        steps = []
        for defn in plan:
            sides = []
            for selector in (defn.lhs, defn.rhs):
                at = index.get(selector)
                if at is None:
                    at = index[selector] = len(selectors)
                    selectors.append(selector)
                sides.append(at)
            steps.append((defn, *sides))
        plan.selectors, plan.steps = tuple(selectors), tuple(steps)
        plan.sources = ("-", *(_source(selector) for selector in selectors[1:]))
        plan.fixed = (_NO_OPERAND, *(
            (Evidence("constant", "present", render_value(selector.const_value)),
             selector.const_value)
            if selector.kind == "const" else None
            for selector in selectors[1:]))
        return plan


class _Operands:
    """One application's operands as its checks read them: each selector
    of the plan is resolved once, and each text operand normalised once.
    It lives as long as the evaluation of that application."""

    def __init__(self, plan: CheckPlan, form: FormData, docs: list[ExtractedDocument],
                 submission_date: dt.date | None, unsupported: list[UnsupportedNotice]):
        self.plan = plan
        self.form = form
        self.submission_date = submission_date
        # the document each slot is read from, and the name its evidence shows
        self.docs_by_slot: dict[DocumentSlot, tuple[ExtractedDocument, str]] = {}
        for doc in docs:
            if doc.doc.slot not in self.docs_by_slot:
                self.docs_by_slot[doc.doc.slot] = doc, doc.doc.name
        self.unsupported_slots = {n.slot: n for n in unsupported}
        self._resolved = list(plan.fixed)
        self._canonical: dict[str, str] = {}

    def resolve(self, at: int) -> _Operand:
        """The operand of the plan's selector at index ``at``."""
        resolved = self._resolved[at]
        if resolved is None:
            resolved = self._resolved[at] = self._read(self.plan.selectors[at],
                                                       self.plan.sources[at])
        return resolved

    def text(self, value: object) -> str | None:
        if isinstance(value, str):
            canonical = self._canonical.get(value)
            if canonical is None:
                canonical = self._canonical[value] = normalize_name(value).canonical
            return canonical
        if isinstance(value, TaxId):
            return value.digits
        return None

    def _read(self, selector: Selector, source: str) -> _Operand:
        if selector.kind == "submission":
            submission_date = self.submission_date
            if submission_date is None:
                return Evidence(source, "absent", None,
                                "submission date not declared or unparseable"), None
            return Evidence(source, "present", submission_date.isoformat()), submission_date

        if selector.kind == "form":
            declared = self.form.get(selector.form_field)
            if declared is None:
                return Evidence(source, "absent", None, "form field not declared"), None
            if declared.warning:
                return Evidence(source, "unreadable", declared.raw, declared.warning), None
            return Evidence(source, "present", render_value(declared.value)), declared.value

        # document tag
        found = self.docs_by_slot.get(selector.slot)
        if found is None:
            notice = self.unsupported_slots.get(selector.slot)
            if notice is not None:
                return Evidence(source, "unsupported", None, (
                    f"document only available as unsupported file: {notice.message}")), None
            return Evidence(source, "absent", None,
                            f"no {selector.slot.value} document in the bundle"), None
        doc, name = found
        source = f"{source} ({name})"
        extracted = doc.fields.get(selector.tag)
        if extracted is None or extracted.state is _ABSENT:
            return Evidence(source, "absent", None, "tag not found in document"), None
        if extracted.state is _UNREADABLE:
            return Evidence(source, "unreadable", extracted.raw,
                            f"unreadable value ({extracted.reason})"), None
        value = extracted.value
        warning = None
        if isinstance(value, PowerValue) and value.unit_assumed:
            warning = "power value had no unit; watts assumed"
        return Evidence(source, "present", render_value(value), warning), value

    def outcomes(self, settings: EngineSettings):
        """The outcome of each check of the plan, in its order."""
        resolve, verdict = self.resolve, self._verdict
        for defn, lhs_at, rhs_at in self.plan.steps:
            lhs, lhs_value = resolve(lhs_at)
            rhs, rhs_value = resolve(rhs_at)
            status, message = verdict(defn.comparator, lhs, lhs_value, rhs, rhs_value, settings)
            yield CheckOutcome(defn.check_id, defn.description, status, lhs, rhs, message)

    def _verdict(self, comp: Comparator, lhs: Evidence, lhs_value: object,
                 rhs: Evidence, rhs_value: object,
                 settings: EngineSettings) -> tuple[CheckStatus, str]:
        if comp.kind == "manual_always":
            return _ALWAYS_MANUAL

        if comp.kind == "present_if_rhs_above":
            # Conditional presence: the rhs amount decides whether the lhs
            # document field must exist at all.
            if rhs.state == "unsupported":
                return _UNSUPPORTED, "reference document unsupported"
            if rhs.state != "present":
                return _MANUAL_CHECK, f"reference amount {rhs.state}"
            if not isinstance(rhs_value, Money):
                return _MANUAL_CHECK, "reference value is not an amount"
            threshold = comp.threshold_cents or 0
            if rhs_value.amount_cents <= threshold:
                return _AUTO_VERIFIED, f"not required below {format_money(Money(threshold))}"
            if lhs.state == "unsupported":
                return _UNSUPPORTED, "required document unsupported"
            if lhs.state == "present":
                return _AUTO_VERIFIED, "required document present"
            return (_MANUAL_CHECK,
                    f"required above {format_money(Money(threshold))} but {lhs.state}")

        # the usual case, two present values without a warning, skips these
        if lhs.detail or rhs.detail or lhs.state != "present" or rhs.state != "present":
            for side in (lhs, rhs):
                if side.state == "unsupported":
                    return _UNSUPPORTED, "supporting document exists only as an unsupported file"
            for side, label in ((lhs, "left"), (rhs, "right")):
                if side.state == "unreadable":
                    return _MANUAL_CHECK, f"{label} value unreadable: {side.detail}"
            for side, label in ((lhs, "left"), (rhs, "right")):
                if side.state == "absent":
                    return _MANUAL_CHECK, f"{label} value missing: {side.detail}"
            for side in (lhs, rhs):
                if side.detail:  # both are present: a detail warns about the value
                    return _MANUAL_CHECK, side.detail

        try:
            holds = _compare(comp, lhs_value, rhs_value, settings, self.text)
        except _TypeMismatch as exc:
            return _MANUAL_CHECK, f"cannot compare: {exc}"
        return _CONSISTENT if holds else _INCONSISTENT


def evaluate_check(defn: CheckDefinition, form: FormData,
                   docs: list[ExtractedDocument], submission_date: dt.date | None,
                   unsupported: list[UnsupportedNotice] = (),
                   settings: EngineSettings = DEFAULT_SETTINGS) -> CheckOutcome:
    """Evaluate one check. Pure function; all failure modes are statuses."""
    operands = _Operands(CheckPlan((defn,)), form, docs, submission_date, unsupported)
    return next(operands.outcomes(settings))


def submission_date_of(form: FormData) -> dt.date | None:
    declared = form.get("submission_date")
    if declared is None or declared.warning or not isinstance(declared.value, dt.date):
        return None
    return declared.value


def evaluate_application(bundle: ApplicationBundle, docs: list[ExtractedDocument],
                         catalog: Sequence[CheckDefinition],
                         settings: EngineSettings = DEFAULT_SETTINGS,
                         ) -> dict[ReportKind, list[CheckOutcome]]:
    """Evaluate every applicable check of ``catalog`` once, grouped by
    report, preserving catalog order. ``catalog`` may be a whole catalog's
    checks or, cheaper, ``Catalog.for_typology`` of the bundle's typology,
    whose plan is already filtered and kept."""
    tid = str(bundle.typology)
    plan = catalog
    if not (isinstance(plan, CheckPlan) and plan.typology == tid):
        plan = CheckPlan((defn for defn in catalog if defn.applicable(tid)), tid)
    operands = _Operands(plan, bundle.form, docs, submission_date_of(bundle.form),
                         bundle.unsupported)
    results: dict[ReportKind, list[CheckOutcome]] = {kind: [] for kind in ReportKind}
    for defn, outcome in zip(plan, operands.outcomes(settings)):
        results[defn.report].append(outcome)
    return results
