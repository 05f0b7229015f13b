"""Schema-driven field extraction from supporting documents.

Extraction is closed-world: the backend is asked for a fixed tag set per
document slot and the result always answers every tag, as present,
absent (the backend's literal "None" sentinel) or unreadable. Absence of
data and failure to read are deliberately distinct outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .ingest import DocumentRef, DocumentSlot, TypologyId
from .normalize import VALUE_PARSERS, ParseError, TaxId, parse_power

NONE_SENTINEL = "None"


class ValueType(str, Enum):
    TEXT = "text"
    MONEY = "money"
    DATE = "date"
    POWER = "power"
    TAX_ID = "tax_id"
    ENUM = "enum"
    NUMBER = "number"


_TAG_PARSERS = {**{ValueType(name): parse for name, parse in VALUE_PARSERS.items()},
                ValueType.POWER: parse_power}


@dataclass(frozen=True)
class TagSpec:
    name: str
    value_type: ValueType
    variants: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExtractionSchema:
    slot: DocumentSlot
    tags: tuple[TagSpec, ...]
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_names", tuple(t.name for t in self.tags))

    def tag_names(self) -> tuple[str, ...]:
        return self._names


MCP_CATEGORIES = ("1", "2", "3", "4", "5")

_ENERGY_CLASSES = ("A+", "A", "B", "B-", "C", "D", "E", "F")
_YES_NO = ("yes", "no")


def _tags(*specs: tuple) -> tuple[TagSpec, ...]:
    out = []
    for spec in specs:
        name, vtype = spec[0], spec[1]
        variants = spec[2] if len(spec) > 2 else ()
        out.append(TagSpec(name=name, value_type=ValueType(vtype), variants=tuple(variants)))
    return tuple(out)


_TAGS: dict[DocumentSlot, tuple[TagSpec, ...]] = {
    DocumentSlot.PRIOR_COMMUNICATION: _tags(
        ("mcp_type", "enum", MCP_CATEGORIES),
        ("ID_energy_producer", "text"),
        ("NIF_NIPC_mcp", "tax_id"),
        ("address_mcp", "text"),
        ("energy_source_mcp", "text"),
        ("generator_power_mcp", "power"),
        ("nominal_power_mcp", "power"),
        ("date_start_mcp", "date"),
        ("date_submission_mcp", "date"),
    ),
    DocumentSlot.INVOICE: _tags(
        ("invoice_number", "text"),
        ("invoice_date", "date"),
        ("total_value", "money"),
        ("buyer_name", "text"),
        ("buyer_tax_id", "tax_id"),
        ("seller_name", "text"),
        ("seller_tax_id", "tax_id"),
        ("buyer_address", "text"),
        ("line_items_text", "text"),
        ("intervention_type", "text"),
        ("equipment_model", "text"),
        ("unit_count", "number"),
        ("panel_model", "text"),
        ("panel_count", "number"),
        ("inverter_model", "text"),
        ("battery_model", "text"),
        ("battery_count", "number"),
    ),
    DocumentSlot.RECEIPT: _tags(
        ("receipt_number", "text"),
        ("receipt_date", "date"),
        ("amount", "money"),
        ("payer_tax_id", "tax_id"),
    ),
    DocumentSlot.PROPERTY_REGISTRY: _tags(
        ("owner_name", "text"),
        ("owner_tax_id", "tax_id"),
        ("property_address", "text"),
        ("issue_date", "date"),
        ("property_article", "text"),
        ("gross_area", "number"),
        ("property_type", "text"),
        ("building_use", "text"),
        ("owners_count", "number"),
    ),
    DocumentSlot.ENERGY_CERTIFICATE: _tags(
        ("certificate_number", "text"),
        ("energy_class", "enum", _ENERGY_CLASSES),
        ("issue_date", "date"),
    ),
    DocumentSlot.EQUIPMENT_DATASHEET: _tags(
        ("equipment_type", "text"),
        ("equipment_model", "text"),
        ("equipment_class", "enum", _ENERGY_CLASSES),
        ("nominal_power", "power"),
        ("classe_plus_id", "text"),
        ("windows_details", "text"),
        ("panel_model", "text"),
        ("inverter_model", "text"),
        ("battery_model", "text"),
        ("battery_power", "power"),
        ("ce_mark_panels", "enum", _YES_NO),
        ("ce_mark_inverters", "enum", _YES_NO),
        ("ce_mark_batteries", "enum", _YES_NO),
        ("ce_mark_equipment", "enum", _YES_NO),
    ),
    DocumentSlot.PHOTO: (),
    DocumentSlot.OTHER: (),
}
# one schema per slot, shared by every document of that slot
_SCHEMAS = {slot: ExtractionSchema(slot=slot, tags=tags) for slot, tags in _TAGS.items()}


def schema_for(slot: DocumentSlot, typology: TypologyId) -> ExtractionSchema:
    """Tag set requested from the backend for a document slot.

    Currently typology-invariant; the parameter is part of the contract
    so schemas can specialize without breaking callers.
    """
    del typology
    return _SCHEMAS[slot]


class ValueState(str, Enum):
    PRESENT = "present"
    ABSENT = "absent"
    UNREADABLE = "unreadable"


# The members read for every tag, looked up once: reading a member off its
# Enum class costs several times a plain name.
_PRESENT = ValueState.PRESENT
_UNREADABLE = ValueState.UNREADABLE
_ENUM = ValueType.ENUM
_PRIOR_COMMUNICATION = DocumentSlot.PRIOR_COMMUNICATION


class ExtractedValue(NamedTuple):
    """One tag's answer. A named tuple, because one is built for nearly
    every tag of every document: immutable, and about half as costly to
    build as a frozen dataclass."""

    state: ValueState
    value: object = None
    raw: str | None = None
    reason: str | None = None

    @classmethod
    def present(cls, value: object, raw: str) -> "ExtractedValue":
        return cls(_PRESENT, value, raw)

    @classmethod
    def absent(cls) -> "ExtractedValue":
        return _ABSENT

    @classmethod
    def unreadable(cls, reason: str, raw: str | None = None) -> "ExtractedValue":
        return cls(_UNREADABLE, None, raw, reason)


# immutable, so one value stands for every absent tag
_ABSENT = ExtractedValue(ValueState.ABSENT)


@dataclass(frozen=True)
class ExtractionMeta:
    backend_id: str
    elapsed_ms: int = 0
    cost_eur: float = 0.0


@dataclass
class ExtractedDocument:
    doc: DocumentRef
    fields: dict[str, ExtractedValue] = field(default_factory=dict)
    doc_class: str | None = None
    meta: ExtractionMeta = ExtractionMeta(backend_id="none")


def _parse_tag(spec: TagSpec, raw: str) -> ExtractedValue:
    raw = raw.strip()
    if raw == NONE_SENTINEL or raw == "":
        return _ABSENT
    if spec.value_type is _ENUM:
        if raw in spec.variants:
            return ExtractedValue(_PRESENT, raw, raw)
        return ExtractedValue.unreadable("type_mismatch", raw)
    try:
        value = _TAG_PARSERS[spec.value_type](raw)
    except ParseError:
        return ExtractedValue.unreadable("type_mismatch", raw)
    if isinstance(value, TaxId) and not value.valid:
        return ExtractedValue.unreadable("type_mismatch", raw)
    return ExtractedValue(_PRESENT, value, raw)


def extract(doc: DocumentRef, schema: ExtractionSchema, backend) -> ExtractedDocument:
    """Run one document through a backend and type-check every tag.

    A backend failure never aborts the batch: all tags come back
    unreadable(backend_error) and the pipeline moves on.
    """
    try:
        response = backend.fetch(doc, schema)
    except Exception as exc:
        # imported here, to avoid a cycle, and only when a fetch raises
        from .backends import BackendError

        if not isinstance(exc, BackendError):
            raise
        fields = {t.name: ExtractedValue.unreadable("backend_error", str(exc))
                  for t in schema.tags}
        return ExtractedDocument(doc=doc, fields=fields,
                                 meta=ExtractionMeta(backend_id=backend.backend_id))

    fields: dict[str, ExtractedValue] = {}
    for spec in schema.tags:
        raw = response.fields.get(spec.name)
        if raw is None:
            fields[spec.name] = _ABSENT
        else:
            fields[spec.name] = _parse_tag(spec, str(raw))
    extracted = ExtractedDocument(
        doc=doc,
        fields=fields,
        meta=ExtractionMeta(backend_id=backend.backend_id,
                            elapsed_ms=response.elapsed_ms,
                            cost_eur=response.cost_eur),
    )
    if schema.slot is _PRIOR_COMMUNICATION:
        extracted.doc_class = classify_mcp(extracted)
    return extracted


def classify_mcp(extracted: ExtractedDocument) -> str | None:
    """Prior-communication document class (category 1..5) or None."""
    value = extracted.fields.get("mcp_type")
    if value is None or value.state is not _PRESENT:
        return None
    return str(value.value)
