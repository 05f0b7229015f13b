"""Load and validate the versioned check catalog."""

from __future__ import annotations

import datetime as dt
import html
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .base import CatalogError
from .extract import schema_for
from .ingest import (
    COMMON_MANDATORY_FIELDS,
    TYPOLOGY_MANDATORY_FIELDS,
    VALID_TYPOLOGIES,
    DocumentSlot,
    TypologyId,
)
from .rules import (
    STATUS_LABELS,
    CheckDefinition,
    CheckPlan,
    Comparator,
    ReportKind,
    Selector,
    pattern_matches,
)


@dataclass(frozen=True)
class ExcludedCheck:
    check_id: str
    reason: str
    description: str


@dataclass
class Catalog:
    version: str
    checks: list[CheckDefinition]
    excluded: list[ExcludedCheck]
    # one plan per typology asked for: at most one per valid typology
    _by_typology: dict[str, CheckPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _escaped: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def for_typology(self, typology: TypologyId) -> CheckPlan:
        """The checks that apply to ``typology``, in catalog order, planned
        once for every application of that typology."""
        tid = str(typology)
        plan = self._by_typology.get(tid)
        if plan is None:
            plan = self._by_typology[tid] = CheckPlan(
                (c for c in self.checks if c.applicable(tid)), tid)
        return plan

    def escaped_texts(self) -> dict[str, str]:
        """The HTML escape of each check description and status label: the
        strings its reports show whatever the application. Built on first
        use."""
        if not self._escaped:
            self._escaped.update((text, html.escape(text)) for text in (
                *STATUS_LABELS.values(), *(check.description for check in self.checks)))
        return self._escaped


KNOWN_FORM_FIELDS = frozenset(COMMON_MANDATORY_FIELDS) | frozenset(
    f for fields in TYPOLOGY_MANDATORY_FIELDS.values() for f in fields
)


def _parse_selector(raw: dict) -> Selector:
    if "form" in raw:
        return Selector.form(str(raw["form"]))
    if "doc" in raw:
        slot_name, tag = raw["doc"]
        return Selector.doc(DocumentSlot(slot_name), str(tag))
    if "submission" in raw:
        return Selector.submission()
    if "const" in raw:
        spec = raw["const"]
        ctype, value = str(spec["type"]), spec["value"]
        if ctype == "date" and not isinstance(value, dt.date):
            value = dt.date.fromisoformat(str(value))
        elif ctype == "number":
            value = float(value) if isinstance(value, float) else int(value)
        else:
            value = str(value)
        return Selector.const(ctype, value)
    raise CatalogError(f"unrecognized selector: {raw!r}")


def _parse_comparator(raw: dict) -> Comparator:
    params = dict(raw)
    kind = params.pop("kind", None)
    if kind is None:
        raise CatalogError(f"comparator missing kind: {raw!r}")
    if "date" in params and not isinstance(params["date"], dt.date):
        params["date"] = dt.date.fromisoformat(str(params["date"]))
    try:
        return Comparator(kind=str(kind), **params)
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"bad comparator {raw!r}: {exc}") from None


_REQUIRED = object()


def _field(entry: dict, key: str, parse, default=_REQUIRED):
    """``parse(entry[key])``, or ``parse(default)`` when the key is absent
    and a default is given. A missing or malformed key is a CatalogError
    that names it."""
    if key not in entry and default is _REQUIRED:
        raise CatalogError(f"missing key {key!r}")
    try:
        return parse(entry.get(key, default))
    except KeyError as exc:
        raise CatalogError(f"malformed {key!r}: no {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # CatalogError is a ValueError
        raise CatalogError(f"malformed {key!r}: {exc}") from None


def _entries(data: dict, key: str, parse) -> list:
    """``parse`` of each mapping in the list ``data[key]``; a CatalogError
    names the entry, by its position and its id."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise CatalogError(f"{key!r} must be a list")
    parsed = []
    for index, entry in enumerate(entries):
        name = f"{key}[{index}]"
        try:
            if not isinstance(entry, dict):
                raise CatalogError("an entry must be a mapping")
            if "id" in entry:
                name += f" (id {entry['id']!r})"
            parsed.append(parse(entry))
        except CatalogError as exc:
            raise CatalogError(f"{name}: {exc}") from None
    return parsed


def _parse_check(entry: dict) -> CheckDefinition:
    return CheckDefinition(
        check_id=_field(entry, "id", str),
        report=_field(entry, "report", ReportKind),
        description=_field(entry, "description", str),
        applies_to=_field(entry, "applies_to", lambda v: tuple(str(p) for p in v), ["*"]),
        comparator=_field(entry, "comparator", _parse_comparator),
        lhs=_field(entry, "lhs", _parse_selector),
        rhs=_field(entry, "rhs", _parse_selector) if "rhs" in entry else None,
        note=_field(entry, "note", str, ""),
    )


def _parse_excluded(entry: dict) -> ExcludedCheck:
    return ExcludedCheck(_field(entry, "id", str), _field(entry, "reason", str),
                         _field(entry, "description", str, ""))


def parse_catalog(data: dict) -> Catalog:
    """The catalog a parsed YAML document describes. An entry with a key
    missing or malformed is a CatalogError that names both."""
    if not isinstance(data, dict):
        raise CatalogError("a catalog must be a mapping")
    checks = _entries(data, "checks", _parse_check)
    seen: set[str] = set()
    for check in checks:
        if check.check_id in seen:
            raise CatalogError(f"duplicate check id {check.check_id!r}")
        seen.add(check.check_id)
    catalog = Catalog(version=str(data.get("version", "0")), checks=checks,
                      excluded=_entries(data, "excluded", _parse_excluded))
    validate_catalog(catalog)
    return catalog


def validate_catalog(catalog: Catalog) -> None:
    """Fail fast on selectors pointing at unknown fields or schema tags."""
    any_typology = TypologyId.parse(VALID_TYPOLOGIES[0])
    for check in catalog.checks:
        for selector in (check.lhs, check.rhs):
            if selector is None:
                continue
            if selector.kind == "form" and selector.form_field not in KNOWN_FORM_FIELDS:
                raise CatalogError(
                    f"{check.check_id}: unknown form field {selector.form_field!r}")
            if selector.kind == "doc":
                schema = schema_for(selector.slot, any_typology)
                if selector.tag not in schema.tag_names():
                    raise CatalogError(
                        f"{check.check_id}: tag {selector.tag!r} not in the "
                        f"{selector.slot.value} schema")
        for pattern in check.applies_to:
            if not any(pattern_matches(pattern, tid) for tid in VALID_TYPOLOGIES):
                raise CatalogError(f"{check.check_id}: pattern {pattern!r} matches no typology")


def load_catalog_file(path: Path | None = None) -> Catalog:
    """Load the shipped catalog, or an operator-supplied override file.

    An override that cannot be read, parsed or validated is a CatalogError
    that names the file.
    """
    import yaml  # only a catalog load needs it

    # libyaml's safe loader builds the same data as the pure-Python one, six
    # times faster on the shipped catalog; PyYAML may be built without it.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    if path is None:
        text = resources.files("claimcheck").joinpath("catalog.yaml").read_text("utf-8")
        return parse_catalog(yaml.load(text, Loader=loader))
    try:
        data = yaml.load(Path(path).read_text("utf-8"), Loader=loader)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise CatalogError(f"catalog file {path} cannot be read: {exc}") from None
    try:
        return parse_catalog(data)
    except CatalogError as exc:
        raise CatalogError(f"catalog file {path}: {exc}") from None
