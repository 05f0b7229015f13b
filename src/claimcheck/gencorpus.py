"""Synthetic corpus generator with seeded, targeted fault injection.

Real application bundles are personal data and can never ship, so every
acceptance-style test runs on corpora built here. The generator plans
inconsistencies at the level of *fault units*: each unit rewrites one or
two values so that a known, exact set of catalog checks flips from
consistent to inconsistent, and nothing else moves. Ground-truth labels
therefore follow directly from the fired units.

The number of inconsistent checks across the corpus is quota-controlled
(a running Bresenham-style accumulator), so a corpus generated at
consistency 0.76 measures a suppression rate of 0.76 up to 1/N.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .backends import DOC_MARKER, MockBackend
from .catalog import Catalog, load_catalog_file
from .extract import ExtractedDocument, extract, schema_for
from .ingest import (
    DEFAULT_MAX_FILE_MB,
    SIDECAR_SUFFIX,
    SUPPORTED_EXTENSIONS,
    ApplicationBundle,
    DocumentRef,
    TypologyId,
    UnsupportedNotice,
    admit_file,
    infer_slot,
    parse_form_xml,
)
from .normalize import Money, format_money

PROGRAM_START = dt.date(2022, 5, 1)

# Relative weights of the five intervention categories. The recorded
# production distribution sums to 110%, so the headline heating-and-
# cooling share (48.06%) is kept as-is and the remaining categories are
# rescaled to fill the rest.
DEFAULT_TYPOLOGY_MIX = {1: 22.93, 2: 1.14, 3: 48.06, 4: 27.44, 5: 0.43}

# Per-application extraction accounting pinned per typology:
# (cost in euro cents, elapsed seconds) attributed to the typology
# report; eligibility and common-core attributions are shared.
TYPOLOGY_COSTS = {
    "1": (5, 37), "2.1.1": (6, 61), "2.1.2": (2, 34), "2.2.1": (2, 24),
    "2.2.2": (9, 108), "3.1": (2, 41), "3.2": (10, 87), "3.3": (9, 23),
    "4": (4, 39), "5.1": (3, 25), "5.2": (21, 173),
}
ELIGIBILITY_COST = (1, 13)
COMMON_COST = (2, 29)

INTERVENTION_LABELS = {
    1: "substituicao de janelas",
    2: "isolamento termico",
    3: "climatizacao",
    4: "paineis solares",
    5: "eficiencia hidrica",
}

_NAMES = (
    "João Silva Costa", "Maria Fernanda Oliveira", "António José Pereira",
    "Ana Luísa Rodrigues", "Carlos Eduardo Santos", "Sofia Isabel Martins",
    "Pedro Miguel Fonseca", "Inês Catarina Almeida",
)
_COMPANIES = ("EcoInstala Lda", "Solartec Energias SA", "Clima Norte Lda", "Janelas do Sul Lda")
_ADDRESSES = (
    "Rua das Flores 12, Lisboa", "Avenida Central 45, Porto",
    "Travessa do Moinho 3, Braga", "Rua do Carmo 78, Coimbra",
    "Largo da Estação 9, Faro", "Rua Nova 101, Évora",
)
_PANEL_MODELS = ("SunPower Maxeon 6", "LONGi Hi-MO 5", "JA Solar JAM54")
_INVERTER_MODELS = ("Huawei SUN2000", "SMA Sunny Boy 3.6", "Fronius Primo 3.8")
_BATTERY_MODELS = ("BYD Battery-Box HVS", "LG RESU 6.4", "Pylontech US3000C")
_EQUIPMENT_MODELS = {
    1: ("Caixiave PVC Oscilo 70", "Finstral Top 72"),
    2: ("Wallmate XPS 60", "Capoto ETICS 80"),
    3: ("Daikin Altherma 3", "Mitsubishi Ecodan 85"),
    5: ("EcoTap Flow 5", "AquaSave X2"),
}
_WINDOW_DETAILS = (
    "4 janelas PVC oscilobatente vidro duplo",
    "6 janelas aluminio de correr vidro triplo",
)

FORM_FIELD_TYPES = {
    "applicant_name": "text",
    "applicant_tax_id": "tax_id",
    "company_tax_id": "tax_id",
    "property_address": "text",
    "property_type": "text",
    "property_article": "text",
    "building_use": "text",
    "gross_area": "number",
    "habitation_license_year": "number",
    "submission_date": "date",
    "invoice_number": "text",
    "invoice_value": "money",
    "intervention_type": "text",
    "energy_source": "text",
    "declared_peak_power": "number",
    "declared_inverter_power": "number",
    "declared_battery_power": "number",
    "declared_panel_count": "number",
    "declared_battery_count": "number",
    "windows_details": "text",
    "declared_unit_count": "number",
    "declared_equipment_power": "number",
}


@dataclass
class DocSpec:
    slot: str
    filename: str
    tags: dict[str, object] = field(default_factory=dict)
    cost_cents: int = 0
    elapsed_ms: int = 0
    unsupported: bool = False

    @property
    def written_name(self) -> str:
        if self.unsupported:
            return str(Path(self.filename).with_suffix(".docx"))
        return self.filename


@dataclass
class AppWorld:
    app_id: str
    typology: TypologyId
    form: dict[str, object]
    docs: list[DocSpec]
    labels: dict[str, bool] = field(default_factory=dict)  # check_id -> real_error
    fired_units: list[str] = field(default_factory=list)

    def doc(self, slot: str) -> DocSpec:
        for spec in self.docs:
            if spec.slot == slot and not spec.tags.get("__photo__"):
                return spec
        raise KeyError(slot)


def make_tax_id(rng: random.Random, avoid: set[str] = frozenset()) -> str:
    while True:
        prefix = [rng.randrange(1, 10)] + [rng.randrange(10) for _ in range(7)]
        total = sum(d * w for d, w in zip(prefix, range(9, 1, -1)))
        check = 11 - (total % 11)
        if check >= 10:
            check = 0
        digits = "".join(str(d) for d in prefix) + str(check)
        if digits not in avoid:
            return digits


@dataclass(frozen=True)
class FaultUnit:
    """One targeted inconsistency: fires as a whole, flips exactly
    ``checks`` (intersected with the typology's applicable set)."""

    name: str
    checks: tuple[str, ...]
    conflicts: tuple[str, ...] = ()


FAULT_UNITS: tuple[FaultUnit, ...] = (
    FaultUnit("owner_name_alt", ("elig.owner_is_applicant",)),
    FaultUnit("intervention_label_alt", ("elig.expense_matches_intervention",)),
    FaultUnit("panels_missing", ("elig.panels_in_invoice", "typ.panel_model_matches")),
    FaultUnit("inverters_missing", ("elig.inverters_in_invoice", "typ.inverter_model_matches")),
    FaultUnit("batteries_missing", ("elig.batteries_in_invoice", "typ.battery_model_matches")),
    FaultUnit("equipment_type_alt", ("elig.equipment_type_matches",)),
    FaultUnit("registry_date_old", ("elig.registry_issue_date_valid",)),
    FaultUnit("certificate_missing", ("elig.certificate_required_above_5000",)),
    FaultUnit("form_address_alt", ("elig.address_matches_registry",)),
    FaultUnit("building_use_alt", ("elig.building_use_eligible",)),
    FaultUnit("property_type_alt", ("elig.property_type_eligible", "common.property_type_matches")),
    FaultUnit("sentinel_dates_old",
              ("elig.invoice_date_not_before_program", "elig.receipt_date_not_before_program"),
              conflicts=("receipt_before_invoice", "receipt_after_submission")),
    FaultUnit("receipt_before_invoice", ("common.receipt_after_invoice",),
              conflicts=("sentinel_dates_old", "receipt_after_submission")),
    FaultUnit("receipt_after_submission", ("common.receipt_before_submission",),
              conflicts=("sentinel_dates_old", "receipt_before_invoice")),
    FaultUnit("classe_plus_missing", ("elig.windows_class_registry_valid",)),
    FaultUnit("windows_class_low", ("elig.windows_class_a_plus",)),
    FaultUnit("battery_low", ("elig.battery_power_min", "typ.battery_power_matches"),
              conflicts=("battery_high",)),
    FaultUnit("battery_high", ("elig.battery_power_max", "typ.battery_power_recommended_range"),
              conflicts=("battery_low", "generator_power_off")),
    FaultUnit("equipment_class_low", ("elig.equipment_class_eligible",)),
    FaultUnit("multiple_owners", ("elig.single_owner",)),
    FaultUnit("seller_is_owner", ("elig.no_owner_seller_conflict",)),
    FaultUnit("buyer_tax_alt", ("elig.invoice_issued_to_applicant", "common.tax_id_matches_invoice")),
    FaultUnit("mcp_missing", ("common.prior_communication_present",)),
    FaultUnit("buyer_name_alt", ("common.name_matches_invoice",)),
    FaultUnit("registry_owner_tax_alt", ("common.tax_id_matches_registry",)),
    FaultUnit("pc_tax_alt", ("common.tax_id_matches_prior_comm",)),
    FaultUnit("form_article_alt", ("common.property_article_matches",)),
    FaultUnit("form_area_alt", ("common.gross_area_matches",)),
    FaultUnit("license_year_recent", ("common.license_year_valid",)),
    FaultUnit("invoice_address_alt",
              ("common.invoice_address_matches_registry", "common.invoice_address_matches_prior_comm")),
    FaultUnit("form_invoice_number_alt", ("common.invoice_number_matches",)),
    FaultUnit("receipt_number_missing", ("common.receipt_number_found",)),
    FaultUnit("form_value_off", ("common.declared_expense_matches_invoice",)),
    FaultUnit("receipt_amount_off", ("common.invoice_receipt_amounts_match",)),
    FaultUnit("company_tax_alt", ("common.company_tax_id_matches_invoice",)),
    FaultUnit("energy_source_alt", ("typ.energy_source_matches",)),
    FaultUnit("inverter_power_off", ("typ.inverter_power_matches",)),
    FaultUnit("generator_power_off", ("typ.generator_power_matches",),
              conflicts=("battery_high",)),
    FaultUnit("pc_start_old", ("typ.prior_comm_start_date",)),
    FaultUnit("pc_submission_late",
              ("typ.prior_comm_submitted_before_application",
               "typ.exemption_submitted_before_application")),
    FaultUnit("panel_count_off", ("typ.panel_count_matches",)),
    FaultUnit("ce_panels_no", ("typ.panels_ce_marked",)),
    FaultUnit("ce_inverters_no", ("typ.inverters_ce_marked",)),
    FaultUnit("battery_count_off", ("typ.battery_count_matches",)),
    FaultUnit("ce_batteries_no", ("typ.batteries_ce_marked",)),
    FaultUnit("windows_details_alt", ("typ.windows_details_match",)),
    FaultUnit("equipment_model_alt", ("typ.equipment_model_matches",)),
    FaultUnit("unit_count_off", ("typ.unit_count_matches",)),
    FaultUnit("equipment_power_off", ("typ.equipment_power_matches",)),
    FaultUnit("equipment_ce_missing", ("typ.equipment_ce_marked",)),
)

# Application order matters for units touching the same value; keep the
# tuple order above as the fixed order.
_UNIT_INDEX = {u.name: i for i, u in enumerate(FAULT_UNITS)}


def _distribute(total: int, n: int) -> list[int]:
    if n <= 0:
        return []
    share, extra = divmod(total, n)
    return [share + (1 if i < extra else 0) for i in range(n)]


def _build_baseline(app_id: str, typology: TypologyId, rng: random.Random,
                    docs_per_app: int) -> tuple[AppWorld, dict]:
    """Fully consistent application plus the alternates faults swap in."""
    major = typology.major
    label = INTERVENTION_LABELS[major]
    name_i = rng.randrange(len(_NAMES))
    addr_i = rng.randrange(len(_ADDRESSES))
    applicant = _NAMES[name_i]
    address = _ADDRESSES[addr_i]
    taken: set[str] = set()
    applicant_tax = make_tax_id(rng, taken); taken.add(applicant_tax)
    company_tax = make_tax_id(rng, taken); taken.add(company_tax)
    alts = {
        "name": _NAMES[(name_i + 3) % len(_NAMES)],
        "name2": _NAMES[(name_i + 5) % len(_NAMES)],
        "address": _ADDRESSES[(addr_i + 2) % len(_ADDRESSES)],
        "address2": _ADDRESSES[(addr_i + 4) % len(_ADDRESSES)],
        "label": INTERVENTION_LABELS[major % 5 + 1],
        "tax": [],
    }
    for _ in range(4):
        alt_tax = make_tax_id(rng, taken)
        taken.add(alt_tax)
        alts["tax"].append(alt_tax)

    invoice_date = PROGRAM_START + dt.timedelta(days=rng.randrange(30, 200))
    receipt_date = invoice_date + dt.timedelta(days=rng.randrange(0, 15))
    submission = receipt_date + dt.timedelta(days=rng.randrange(30, 90))
    invoice_value = Money(rng.randrange(550_000, 1_200_000))
    invoice_number = f"FT {invoice_date.year}/{rng.randrange(100, 9999)}"
    article = str(rng.randrange(100, 9999))
    area = rng.randrange(80, 200)

    form: dict[str, object] = {
        "applicant_name": applicant,
        "applicant_tax_id": applicant_tax,
        "company_tax_id": company_tax,
        "property_address": address,
        "property_type": "urbano",
        "property_article": article,
        "building_use": "habitacao",
        "gross_area": area,
        "habitation_license_year": rng.randrange(1985, 2021),
        "submission_date": submission,
        "invoice_number": invoice_number,
        "invoice_value": invoice_value,
        "intervention_type": label,
    }

    seller = _COMPANIES[rng.randrange(len(_COMPANIES))]
    invoice_tags: dict[str, object] = {
        "invoice_number": invoice_number,
        "invoice_date": invoice_date,
        "total_value": invoice_value,
        "buyer_name": applicant,
        "buyer_tax_id": applicant_tax,
        "seller_name": seller,
        "seller_tax_id": company_tax,
        "buyer_address": address,
        "line_items_text": f"{label} - fornecimento e instalacao",
        "intervention_type": label,
        "equipment_model": None,
        "unit_count": None,
        "panel_model": None,
        "panel_count": None,
        "inverter_model": None,
        "battery_model": None,
        "battery_count": None,
    }
    receipt_tags: dict[str, object] = {
        "receipt_number": f"RC {receipt_date.year}/{rng.randrange(100, 9999)}",
        "receipt_date": receipt_date,
        "amount": invoice_value,
        "payer_tax_id": applicant_tax,
    }
    registry_tags: dict[str, object] = {
        "owner_name": applicant,
        "owner_tax_id": applicant_tax,
        "property_address": address,
        "issue_date": PROGRAM_START + dt.timedelta(days=rng.randrange(0, 150)),
        "property_article": article,
        "gross_area": area,
        "property_type": "urbano",
        "building_use": "habitacao",
        "owners_count": 1,
    }
    certificate_tags: dict[str, object] = {
        "certificate_number": f"CE-{rng.randrange(10000, 99999)}",
        "energy_class": "A+",
        "issue_date": PROGRAM_START + dt.timedelta(days=rng.randrange(0, 200)),
    }
    datasheet_tags: dict[str, object] = {
        "equipment_type": label,
        "equipment_model": None,
        "equipment_class": None,
        "nominal_power": None,
        "classe_plus_id": None,
        "windows_details": None,
        "panel_model": None,
        "inverter_model": None,
        "battery_model": None,
        "battery_power": None,
        "ce_mark_panels": None,
        "ce_mark_inverters": None,
        "ce_mark_batteries": None,
        "ce_mark_equipment": None,
    }

    docs = [
        DocSpec("invoice", "fatura.pdf", invoice_tags),
        DocSpec("receipt", "recibo.pdf", receipt_tags),
        DocSpec("property_registry", "certidao_cpu.pdf", registry_tags),
        DocSpec("energy_certificate", "certificado_energetico.pdf", certificate_tags),
        DocSpec("equipment_datasheet", "ficha_tecnica_datasheet.pdf", datasheet_tags),
    ]

    if major == 4:
        peak = rng.choice((2000, 3000, 4000))
        battery = int(1.8 * peak)
        inverter = rng.choice((3680, 5000, 6000))
        panel_count = rng.randrange(6, 15)
        battery_count = rng.randrange(1, 3)
        panel_model = _PANEL_MODELS[rng.randrange(len(_PANEL_MODELS))]
        inverter_model = _INVERTER_MODELS[rng.randrange(len(_INVERTER_MODELS))]
        battery_model = _BATTERY_MODELS[rng.randrange(len(_BATTERY_MODELS))]
        form.update({
            "energy_source": "solar",
            "declared_peak_power": peak,
            "declared_inverter_power": inverter,
            "declared_battery_power": battery,
            "declared_panel_count": panel_count,
            "declared_battery_count": battery_count,
        })
        invoice_tags.update({
            "panel_model": panel_model,
            "panel_count": panel_count,
            "inverter_model": inverter_model,
            "battery_model": battery_model,
            "battery_count": battery_count,
        })
        datasheet_tags.update({
            "panel_model": panel_model,
            "inverter_model": inverter_model,
            "battery_model": battery_model,
            "battery_power": battery,
            "ce_mark_panels": "yes",
            "ce_mark_inverters": "yes",
            "ce_mark_batteries": "yes",
        })
        mcp_tags: dict[str, object] = {
            "mcp_type": rng.choice(("1", "2", "3", "5")),
            "ID_energy_producer": f"EP-{rng.randrange(10000, 99999)}",
            "NIF_NIPC_mcp": applicant_tax,
            "address_mcp": address,
            "energy_source_mcp": "solar",
            "generator_power_mcp": peak,
            "nominal_power_mcp": inverter,
            "date_start_mcp": PROGRAM_START + dt.timedelta(days=rng.randrange(0, 100)),
            "date_submission_mcp": submission - dt.timedelta(days=rng.randrange(10, 60)),
        }
        docs.append(DocSpec("prior_communication", "mcp_dgeg.pdf", mcp_tags))
    else:
        models = _EQUIPMENT_MODELS[major]
        model_i = rng.randrange(len(models))
        equipment_model = models[model_i]
        alts["model"] = models[(model_i + 1) % len(models)]
        unit_count = rng.randrange(1, 7)
        form["declared_unit_count"] = unit_count
        invoice_tags["equipment_model"] = equipment_model
        invoice_tags["unit_count"] = unit_count
        datasheet_tags["equipment_model"] = equipment_model
        datasheet_tags["ce_mark_equipment"] = "yes"
        if major == 1:
            detail_i = rng.randrange(len(_WINDOW_DETAILS))
            form["windows_details"] = _WINDOW_DETAILS[detail_i]
            alts["windows_details"] = _WINDOW_DETAILS[(detail_i + 1) % len(_WINDOW_DETAILS)]
            datasheet_tags["windows_details"] = _WINDOW_DETAILS[detail_i]
            datasheet_tags["classe_plus_id"] = f"CL+{rng.randrange(1000, 9999)}"
            datasheet_tags["equipment_class"] = "A+"
        if major in (2, 3):
            datasheet_tags["equipment_class"] = "A+"
        if major == 3:
            power = rng.choice((5000, 8000, 12000))
            form["declared_equipment_power"] = power
            datasheet_tags["nominal_power"] = power

    photos = max(0, docs_per_app - len(docs))
    for i in range(photos):
        docs.append(DocSpec("photo", f"foto_{i + 1:02d}.png", {"__photo__": True}))

    _allocate_costs(docs, str(typology))
    world = AppWorld(app_id=app_id, typology=typology, form=form, docs=docs)
    return world, alts


def _allocate_costs(docs: list[DocSpec], typology_id: str) -> None:
    elig_docs = [d for d in docs if d.slot in ("property_registry", "energy_certificate")]
    common_docs = [d for d in docs if d.slot in ("invoice", "receipt")]
    typ_docs = [d for d in docs if d not in elig_docs and d not in common_docs]
    for group, (cost_cents, seconds) in (
        (elig_docs, ELIGIBILITY_COST),
        (common_docs, COMMON_COST),
        (typ_docs, TYPOLOGY_COSTS[typology_id]),
    ):
        for doc, cents in zip(group, _distribute(cost_cents, len(group))):
            doc.cost_cents = cents
        for doc, ms in zip(group, _distribute(seconds * 1000, len(group))):
            doc.elapsed_ms = ms


def _apply_fault(name: str, world: AppWorld, alts: dict) -> None:
    form = world.form
    invoice = world.doc("invoice").tags
    receipt = world.doc("receipt").tags
    registry = world.doc("property_registry").tags
    if name == "owner_name_alt":
        registry["owner_name"] = alts["name"]
    elif name == "intervention_label_alt":
        invoice["intervention_type"] = alts["label"]
    elif name == "panels_missing":
        invoice["panel_model"] = None
    elif name == "inverters_missing":
        invoice["inverter_model"] = None
    elif name == "batteries_missing":
        invoice["battery_model"] = None
    elif name == "equipment_type_alt":
        world.doc("equipment_datasheet").tags["equipment_type"] = alts["label"]
    elif name == "registry_date_old":
        registry["issue_date"] = PROGRAM_START - dt.timedelta(days=45)
    elif name == "certificate_missing":
        world.doc("energy_certificate").tags["certificate_number"] = None
    elif name == "form_address_alt":
        form["property_address"] = alts["address"]
    elif name == "building_use_alt":
        registry["building_use"] = "comercio"
    elif name == "property_type_alt":
        registry["property_type"] = "rustico"
    elif name == "sentinel_dates_old":
        invoice["invoice_date"] = PROGRAM_START - dt.timedelta(days=40)
        receipt["receipt_date"] = PROGRAM_START - dt.timedelta(days=20)
    elif name == "receipt_before_invoice":
        receipt["receipt_date"] = invoice["invoice_date"] - dt.timedelta(days=10)
    elif name == "receipt_after_submission":
        receipt["receipt_date"] = form["submission_date"] + dt.timedelta(days=7)
    elif name == "classe_plus_missing":
        world.doc("equipment_datasheet").tags["classe_plus_id"] = None
    elif name in ("windows_class_low", "equipment_class_low"):
        world.doc("equipment_datasheet").tags["equipment_class"] = "B"
    elif name == "battery_low":
        form["declared_battery_power"] = round(0.6 * form["declared_battery_power"])
    elif name == "battery_high":
        boosted = round(1.45 * form["declared_battery_power"])
        form["declared_battery_power"] = boosted
        world.doc("equipment_datasheet").tags["battery_power"] = boosted
    elif name == "multiple_owners":
        registry["owners_count"] = 2
    elif name == "seller_is_owner":
        invoice["seller_tax_id"] = form["applicant_tax_id"]
        form["company_tax_id"] = form["applicant_tax_id"]
    elif name == "buyer_tax_alt":
        invoice["buyer_tax_id"] = alts["tax"][0]
    elif name == "mcp_missing":
        world.doc("prior_communication").tags["mcp_type"] = None
    elif name == "buyer_name_alt":
        invoice["buyer_name"] = alts["name2"]
    elif name == "registry_owner_tax_alt":
        registry["owner_tax_id"] = alts["tax"][1]
    elif name == "pc_tax_alt":
        world.doc("prior_communication").tags["NIF_NIPC_mcp"] = alts["tax"][2]
    elif name == "form_article_alt":
        form["property_article"] = str(int(form["property_article"]) + 7)
    elif name == "form_area_alt":
        form["gross_area"] = form["gross_area"] + 25
    elif name == "license_year_recent":
        form["habitation_license_year"] = 2023
    elif name == "invoice_address_alt":
        invoice["buyer_address"] = alts["address2"]
    elif name == "form_invoice_number_alt":
        form["invoice_number"] = form["invoice_number"] + "9"
    elif name == "receipt_number_missing":
        receipt["receipt_number"] = None
    elif name == "form_value_off":
        form["invoice_value"] = Money(form["invoice_value"].amount_cents + 1234)
    elif name == "receipt_amount_off":
        receipt["amount"] = Money(receipt["amount"].amount_cents + 777)
    elif name == "company_tax_alt":
        form["company_tax_id"] = alts["tax"][3]
    elif name == "energy_source_alt":
        world.doc("prior_communication").tags["energy_source_mcp"] = "eolica"
    elif name == "inverter_power_off":
        form["declared_inverter_power"] = round(1.2 * form["declared_inverter_power"])
    elif name == "generator_power_off":
        form["declared_peak_power"] = round(1.15 * form["declared_peak_power"])
    elif name == "pc_start_old":
        world.doc("prior_communication").tags["date_start_mcp"] = \
            PROGRAM_START - dt.timedelta(days=30)
    elif name == "pc_submission_late":
        world.doc("prior_communication").tags["date_submission_mcp"] = \
            form["submission_date"] + dt.timedelta(days=5)
    elif name == "panel_count_off":
        invoice["panel_count"] = invoice["panel_count"] + 2
    elif name == "ce_panels_no":
        world.doc("equipment_datasheet").tags["ce_mark_panels"] = "no"
    elif name == "ce_inverters_no":
        world.doc("equipment_datasheet").tags["ce_mark_inverters"] = "no"
    elif name == "battery_count_off":
        invoice["battery_count"] = invoice["battery_count"] + 1
    elif name == "ce_batteries_no":
        world.doc("equipment_datasheet").tags["ce_mark_batteries"] = "no"
    elif name == "windows_details_alt":
        form["windows_details"] = alts["windows_details"]
    elif name == "equipment_model_alt":
        world.doc("invoice").tags["equipment_model"] = alts["model"]
    elif name == "unit_count_off":
        invoice["unit_count"] = invoice["unit_count"] + 1
    elif name == "equipment_power_off":
        form["declared_equipment_power"] = round(1.25 * form["declared_equipment_power"])
    elif name == "equipment_ce_missing":
        world.doc("equipment_datasheet").tags["ce_mark_equipment"] = "no"
    else:
        raise ValueError(f"unknown fault unit {name!r}")


def _plan_units(applicable_ids: set[str], target: int, rng: random.Random) -> list[FaultUnit]:
    """Pick non-conflicting units whose flip sets sum exactly to target."""
    candidates = [u for u in FAULT_UNITS if set(u.checks) & applicable_ids]
    rng.shuffle(candidates)
    selected: list[FaultUnit] = []
    blocked: set[str] = set()
    remaining = target
    for unit in candidates:
        if remaining == 0:
            break
        if unit.name in blocked:
            continue
        size = len(set(unit.checks) & applicable_ids)
        if size > remaining:
            continue
        selected.append(unit)
        blocked.update(unit.conflicts)
        remaining -= size
    # Units are ordered for composition safety (e.g. seller_is_owner
    # must run before company_tax_alt).
    selected.sort(key=lambda u: _UNIT_INDEX[u.name])
    return selected


def build_world(app_id: str, typology: TypologyId, catalog: Catalog,
                rng: random.Random, docs_per_app: int = 11,
                inconsistent_quota: int | None = None,
                consistency: float = 1.0) -> AppWorld:
    """One application with exactly ``inconsistent_quota`` inconsistent
    checks (or round((1-consistency)*n) when no quota is given)."""
    world, alts = _build_baseline(app_id, typology, rng, docs_per_app)
    applicable = {c.check_id for c in catalog.for_typology(typology)}
    if inconsistent_quota is None:
        inconsistent_quota = round((1.0 - consistency) * len(applicable))
    units = _plan_units(applicable, inconsistent_quota, rng)
    flipped: set[str] = set()
    for unit in units:
        _apply_fault(unit.name, world, alts)
        flipped.update(set(unit.checks) & applicable)
        world.fired_units.append(unit.name)
    world.labels = {check_id: (check_id in flipped) for check_id in sorted(applicable)}
    return world


@dataclass
class GenOptions:
    n_apps: int
    consistency: float = 0.76
    seed: int = 0
    docs_per_app: int = 11
    unsupported_rate: float = 0.0
    typology_mix: dict[int, float] | None = None
    catalog_path: Path | None = None


def _assign_typologies(n: int, mix: dict[int, float], rng: random.Random) -> list[TypologyId]:
    """Largest-remainder apportionment over majors, uniform sub-typology."""
    total_weight = sum(mix.values())
    raw = {m: n * w / total_weight for m, w in mix.items()}
    counts = {m: int(raw[m]) for m in mix}
    for m in sorted(mix, key=lambda m: raw[m] - counts[m], reverse=True):
        if sum(counts.values()) == n:
            break
        counts[m] += 1
    assignment: list[TypologyId] = []
    from .ingest import VALID_TYPOLOGIES
    for major, count in sorted(counts.items()):
        subs = [t for t in VALID_TYPOLOGIES if t.split(".")[0] == str(major)]
        for i in range(count):
            assignment.append(TypologyId.parse(subs[i % len(subs)]))
    rng.shuffle(assignment)
    return assignment


def plan_worlds(options: GenOptions, catalog: Catalog | None = None) -> list[AppWorld]:
    """Deterministic corpus plan; fault quota is exact corpus-wide."""
    catalog = catalog or load_catalog_file(options.catalog_path)
    mix = options.typology_mix or DEFAULT_TYPOLOGY_MIX
    assign_rng = random.Random(f"{options.seed}:mix")
    typologies = _assign_typologies(options.n_apps, mix, assign_rng)

    inconsistency = 1.0 - options.consistency
    worlds: list[AppWorld] = []
    checks_seen = 0
    flipped_planned = 0
    for index, typology in enumerate(typologies):
        app_id = f"app_{index + 1:05d}"
        rng = random.Random(f"{options.seed}:{app_id}")
        n_checks = len(catalog.for_typology(typology))
        quota = int((checks_seen + n_checks) * inconsistency) - flipped_planned
        world = build_world(app_id, typology, catalog, rng,
                            docs_per_app=options.docs_per_app,
                            inconsistent_quota=quota)
        checks_seen += n_checks
        flipped_planned += sum(world.labels.values())
        worlds.append(world)

    if options.unsupported_rate > 0:
        # multiplicative quota avoids float drift: doc k is marked when
        # floor(k*rate) increments, so exactly floor(total*rate) marks
        seen = 0
        marked = 0
        for world in worlds:
            for doc in world.docs:
                seen += 1
                due = int(seen * options.unsupported_rate + 1e-9)
                if due > marked:
                    doc.unsupported = True
                    marked = due
    return worlds


def _serialize_value(value: object) -> str:
    if isinstance(value, Money):
        return format_money(value)
    if isinstance(value, dt.date):
        return f"{value.day:02d}/{value.month:02d}/{value.year}"
    return str(value)


def form_xml_bytes(world: AppWorld) -> bytes:
    root = ET.Element("application", id=world.app_id, typology=str(world.typology))
    declared = ET.SubElement(root, "declared")
    for field_id, value in world.form.items():
        element = ET.SubElement(declared, field_id, type=FORM_FIELD_TYPES[field_id])
        element.text = _serialize_value(value)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def sidecar_dict(doc: DocSpec) -> dict:
    sidecar: dict[str, object] = {}
    for name, value in doc.tags.items():
        if name.startswith("__"):
            continue
        sidecar[name] = "None" if value is None else _serialize_tag(name, value)
    sidecar["__meta__"] = {"cost_eur": doc.cost_cents / 100.0, "elapsed_ms": doc.elapsed_ms}
    return sidecar


def _serialize_tag(name: str, value: object) -> str:
    if isinstance(value, Money):
        return format_money(value)
    if isinstance(value, dt.date):
        return f"{value.day:02d}/{value.month:02d}/{value.year}"
    if name in ("generator_power_mcp", "nominal_power_mcp", "battery_power", "nominal_power"):
        return f"{value} W"
    return str(value)


def doc_bytes(app_id: str, filename: str) -> bytes:
    relpath = f"{app_id}/{filename}"
    return DOC_MARKER + relpath.encode("utf-8") + b"\n" + b"synthetic document body\n"


@dataclass
class GenSummary:
    n_apps: int
    total_checks: int
    inconsistent_checks: int
    unsupported_files: int
    labels_path: Path
    manifest_path: Path


def write_corpus(root: Path, options: GenOptions,
                 catalog: Catalog | None = None) -> GenSummary:
    """Materialize the corpus plan: forms, documents, fixture sidecars,
    ground-truth labels and a generation manifest."""
    catalog = catalog or load_catalog_file(options.catalog_path)
    worlds = plan_worlds(options, catalog)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    label_rows = ["app_id,check_id,real_error,category"]
    manifest_apps = []
    unsupported_count = 0
    total_checks = 0
    inconsistent = 0
    for world in worlds:
        app_dir = root / world.app_id
        app_dir.mkdir(parents=True, exist_ok=True)
        (app_dir / "form.xml").write_bytes(form_xml_bytes(world))
        converted = []
        for doc in world.docs:
            name = doc.written_name
            (app_dir / name).write_bytes(doc_bytes(world.app_id, name))
            if doc.unsupported:
                unsupported_count += 1
                converted.append(name)
                continue
            sidecar = sidecar_dict(doc)
            (app_dir / (name + SIDECAR_SUFFIX)).write_text(
                json.dumps(sidecar, ensure_ascii=False, sort_keys=True, indent=1),
                encoding="utf-8")
        for check_id, real_error in world.labels.items():
            label_rows.append(f"{world.app_id},{check_id},{str(real_error).lower()},")
            total_checks += 1
            inconsistent += int(real_error)
        manifest_apps.append({
            "app_id": world.app_id,
            "typology": str(world.typology),
            "fired_units": world.fired_units,
            "inconsistent_checks": sorted(k for k, v in world.labels.items() if v),
            "unsupported_files": converted,
        })

    labels_path = root / "labels.csv"
    labels_path.write_text("\n".join(label_rows) + "\n", encoding="utf-8")
    manifest_path = root / "corpus_manifest.json"
    manifest_path.write_text(json.dumps({
        "seed": options.seed,
        "n_apps": options.n_apps,
        "consistency": options.consistency,
        "docs_per_app": options.docs_per_app,
        "unsupported_rate": options.unsupported_rate,
        "total_checks": total_checks,
        "inconsistent_checks": inconsistent,
        "unsupported_files": unsupported_count,
        "apps": manifest_apps,
    }, ensure_ascii=False, sort_keys=True, indent=1), encoding="utf-8")
    return GenSummary(
        n_apps=len(worlds),
        total_checks=total_checks,
        inconsistent_checks=inconsistent,
        unsupported_files=unsupported_count,
        labels_path=labels_path,
        manifest_path=manifest_path,
    )


def world_bundle_and_docs(world: AppWorld) -> tuple[ApplicationBundle, list[ExtractedDocument]]:
    """In-memory bundle + extraction for a world, bypassing the filesystem
    (used for large randomized test corpora)."""
    app_id, typology, form = parse_form_xml(form_xml_bytes(world))
    refs: list[DocumentRef] = []
    notices: list[UnsupportedNotice] = []
    store: dict[str, dict] = {}
    cap_bytes = int(DEFAULT_MAX_FILE_MB * 1_000_000)
    for doc in world.docs:
        virtual = Path(app_id) / doc.written_name
        slot = infer_slot(virtual)
        admitted = admit_file(str(virtual), virtual.name, 0, slot, SUPPORTED_EXTENSIONS,
                              cap_bytes)
        if isinstance(admitted, UnsupportedNotice):
            notices.append(admitted)
            continue
        refs.append(DocumentRef(path=str(virtual), kind=admitted, slot=slot,
                                corpus_path=str(virtual)))
        store[str(virtual)] = sidecar_dict(doc)
    bundle = ApplicationBundle(app_id=app_id, typology=typology, form=form,
                               documents=refs, unsupported=notices)
    backend = MockBackend(store=store)
    extracted = [extract(ref, schema_for(ref.slot, typology), backend) for ref in refs]
    return bundle, extracted
