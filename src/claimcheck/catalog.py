"""Load and validate the versioned check catalog."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .extract import schema_for
from .ingest import (
    COMMON_MANDATORY_FIELDS,
    TYPOLOGY_MANDATORY_FIELDS,
    VALID_TYPOLOGIES,
    DocumentSlot,
    TypologyId,
)
from .rules import CheckDefinition, Comparator, ReportKind, Selector, pattern_matches


# libyaml's safe loader builds the same data as the pure-Python one, six
# times faster on the shipped catalog; PyYAML may be built without it.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class CatalogError(ValueError):
    pass


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
    # one filtered tuple per typology asked for: at most one per valid typology
    _by_typology: dict[str, tuple[CheckDefinition, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def for_typology(self, typology: TypologyId) -> tuple[CheckDefinition, ...]:
        """The checks that apply to ``typology``, in catalog order."""
        tid = str(typology)
        checks = self._by_typology.get(tid)
        if checks is None:
            checks = self._by_typology[tid] = tuple(c for c in self.checks if c.applicable(tid))
        return checks


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


def parse_catalog(data: dict) -> Catalog:
    checks: list[CheckDefinition] = []
    seen: set[str] = set()
    for entry in data.get("checks", []):
        check_id = str(entry["id"])
        if check_id in seen:
            raise CatalogError(f"duplicate check id {check_id!r}")
        seen.add(check_id)
        rhs = _parse_selector(entry["rhs"]) if "rhs" in entry else None
        checks.append(CheckDefinition(
            check_id=check_id,
            report=ReportKind(entry["report"]),
            description=str(entry["description"]),
            applies_to=tuple(str(p) for p in entry.get("applies_to", ["*"])),
            comparator=_parse_comparator(entry["comparator"]),
            lhs=_parse_selector(entry["lhs"]),
            rhs=rhs,
            note=str(entry.get("note", "")),
        ))
    excluded = [
        ExcludedCheck(str(e["id"]), str(e["reason"]), str(e.get("description", "")))
        for e in data.get("excluded", [])
    ]
    catalog = Catalog(version=str(data.get("version", "0")), checks=checks, excluded=excluded)
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
    """Load the shipped catalog, or an operator-supplied override file."""
    if path is None:
        text = resources.files("claimcheck").joinpath("catalog.yaml").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    return parse_catalog(yaml.load(text, Loader=_SAFE_LOADER))
