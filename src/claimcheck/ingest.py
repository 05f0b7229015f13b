"""Corpus loading: scan application directories, filter file formats,
expand archives, parse declared form data and map files to document slots."""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
import zipfile
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path, PurePath

from .base import VALID_TYPOLOGIES
from .normalize import FormData, parse_declared

DEFAULT_MAX_FILE_MB = 25
# An archive stays open, with its whole entry list, until its application is
# done, so the entries an archive may list are capped.
MAX_ARCHIVE_ENTRIES = 256

# Sidecar fixture files and the form itself are bundle metadata, not
# user documents; they are excluded from the document/unsupported split.
FORM_FILENAME = "form.xml"
SIDECAR_SUFFIX = ".fields.json"

class FileKind(str, Enum):
    PDF = "pdf"
    ZIP = "zip"
    JPG = "jpg"
    PNG = "png"


# The kind of each lower-case suffix that is a document; a run adds those of
# --allow-ext.
SUPPORTED_EXTENSIONS = {".pdf": FileKind.PDF, ".zip": FileKind.ZIP, ".jpg": FileKind.JPG,
                        ".jpeg": FileKind.JPG, ".png": FileKind.PNG}


class DocumentSlot(str, Enum):
    INVOICE = "invoice"
    RECEIPT = "receipt"
    PROPERTY_REGISTRY = "property_registry"
    PRIOR_COMMUNICATION = "prior_communication"
    ENERGY_CERTIFICATE = "energy_certificate"
    EQUIPMENT_DATASHEET = "equipment_datasheet"
    PHOTO = "photo"
    OTHER = "other"


# Designated upload directories take precedence; filename keywords are
# the fallback for users who dumped everything at the top level.
_SLOT_DIRECTORIES = {
    "invoice": DocumentSlot.INVOICE,
    "fatura": DocumentSlot.INVOICE,
    "receipt": DocumentSlot.RECEIPT,
    "recibo": DocumentSlot.RECEIPT,
    "property_registry": DocumentSlot.PROPERTY_REGISTRY,
    "cpu": DocumentSlot.PROPERTY_REGISTRY,
    "certidao": DocumentSlot.PROPERTY_REGISTRY,
    "prior_communication": DocumentSlot.PRIOR_COMMUNICATION,
    "mcp": DocumentSlot.PRIOR_COMMUNICATION,
    "energy_certificate": DocumentSlot.ENERGY_CERTIFICATE,
    "certificado": DocumentSlot.ENERGY_CERTIFICATE,
    "equipment_datasheet": DocumentSlot.EQUIPMENT_DATASHEET,
    "datasheet": DocumentSlot.EQUIPMENT_DATASHEET,
    "photo": DocumentSlot.PHOTO,
    "fotos": DocumentSlot.PHOTO,
}

_FILENAME_KEYWORDS = (
    ("fatura", DocumentSlot.INVOICE),
    ("invoice", DocumentSlot.INVOICE),
    ("recibo", DocumentSlot.RECEIPT),
    ("receipt", DocumentSlot.RECEIPT),
    ("certidao", DocumentSlot.PROPERTY_REGISTRY),
    ("cpu", DocumentSlot.PROPERTY_REGISTRY),
    ("registo", DocumentSlot.PROPERTY_REGISTRY),
    ("mcp", DocumentSlot.PRIOR_COMMUNICATION),
    ("dgeg", DocumentSlot.PRIOR_COMMUNICATION),
    ("comunicacao", DocumentSlot.PRIOR_COMMUNICATION),
    ("certificado_energetico", DocumentSlot.ENERGY_CERTIFICATE),
    ("certificado", DocumentSlot.ENERGY_CERTIFICATE),
    ("datasheet", DocumentSlot.EQUIPMENT_DATASHEET),
    ("ficha_tecnica", DocumentSlot.EQUIPMENT_DATASHEET),
    ("foto", DocumentSlot.PHOTO),
    ("photo", DocumentSlot.PHOTO),
)


@dataclass(frozen=True)
class TypologyId:
    """Intervention category, e.g. 2.1.1 -> major=2, sub_path=(1, 1)."""

    major: int
    sub_path: tuple[int, ...] = ()

    def __str__(self) -> str:
        return ".".join(str(p) for p in (self.major, *self.sub_path))

    @classmethod
    def parse(cls, text: str) -> "TypologyId":
        parts = text.strip().split(".")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed typology id: {text!r}") from None
        tid = cls(numbers[0], tuple(numbers[1:]))
        if str(tid) not in VALID_TYPOLOGIES:
            raise ValueError(
                f"unknown typology {text!r}; valid ids: {', '.join(VALID_TYPOLOGIES)}"
            )
        return tid


@dataclass(frozen=True)
class UnsupportedNotice:
    path: str  # the file's corpus name (see DocumentRef.display_path)
    # unsupported_extension | oversize | corrupt_archive | too_many_members
    # | archive_depth_exceeded
    reason: str
    message: str
    slot: DocumentSlot = DocumentSlot.OTHER


@dataclass(frozen=True)
class DocumentRef:
    # the file, or the archive that holds the member, as it is opened; the
    # scan gives the path string ``os.scandir`` made, and parses no Path
    path: str
    kind: FileKind
    slot: DocumentSlot = DocumentSlot.OTHER
    member: str | None = None  # the member's name inside the archive at ``path``
    # the archive at ``path``, opened and checked by the scan
    archive: zipfile.ZipFile | None = field(default=None, compare=False, repr=False)
    # ``path`` relative to the corpus root, in POSIX form: the name outputs quote
    corpus_path: str = ""

    @property
    def display_path(self) -> str:  # e.g. app_00001/anexos.zip!foto_09.webp for a member
        return self.corpus_path if self.member is None else f"{self.corpus_path}!{self.member}"

    @property
    def name(self) -> str:
        return os.path.basename(self.path) if self.member is None else PurePath(self.member).name

    def read_bytes(self) -> bytes:
        """Its bytes, read whole."""
        if self.member is None:  # by string and unbuffered: read whole, at once
            with open(self.path, "rb", buffering=0) as file:
                return file.read()
        return self.archive.read(self.member)


@dataclass
class ApplicationBundle:
    app_id: str
    typology: TypologyId
    form: FormData
    documents: list[DocumentRef] = field(default_factory=list)
    unsupported: list[UnsupportedNotice] = field(default_factory=list)
    files: list[str] = field(default_factory=list)  # the corpus name of each of its files
    # the open archives its documents are read from; closing it closes them
    archives: ExitStack = field(default_factory=ExitStack, compare=False, repr=False)


@dataclass(frozen=True)
class LoadFailure:
    app_id: str
    path: str  # the application directory's corpus name
    reason: str
    files: list[str]  # the corpus name of every regular file under that directory


@dataclass
class FormScan:
    applications: list[tuple[str, Path]]  # (app id, directory), ordered by app id
    failures: list[LoadFailure]
    loose_files: list[str] = field(default_factory=list)  # regular files at the corpus root
    # symlinks at the corpus root to a directory, which is not followed
    skipped_links: list[str] = field(default_factory=list)


@dataclass
class ScanResult:
    bundles: list[ApplicationBundle]
    failures: list[LoadFailure]
    loose_files: list[str] = field(default_factory=list)  # regular files at the corpus root


class FormParseError(ValueError):
    pass


# Fields every application must declare; presence only, validity is the
# rule engine's concern.
COMMON_MANDATORY_FIELDS = (
    "applicant_name",
    "applicant_tax_id",
    "company_tax_id",
    "property_address",
    "property_type",
    "property_article",
    "building_use",
    "gross_area",
    "habitation_license_year",
    "submission_date",
    "invoice_number",
    "invoice_value",
    "intervention_type",
)

TYPOLOGY_MANDATORY_FIELDS = {
    1: ("windows_details", "declared_unit_count"),
    2: ("declared_unit_count",),
    3: ("declared_unit_count", "declared_equipment_power"),
    4: (
        "energy_source",
        "declared_peak_power",
        "declared_inverter_power",
        "declared_battery_power",
        "declared_panel_count",
        "declared_battery_count",
    ),
    5: ("declared_unit_count",),
}


def mandatory_fields(typology: TypologyId) -> tuple[str, ...]:
    return COMMON_MANDATORY_FIELDS + TYPOLOGY_MANDATORY_FIELDS.get(typology.major, ())


def infer_slot(path: PurePath) -> DocumentSlot:
    """Slot of a file, outside any upload directory, from its name."""
    return _slot_of((), path.name)


def _slot_of(folders: tuple[str, ...], name: str) -> DocumentSlot:
    """Slot of the file ``name`` in the ``folders`` below the application
    root: from upload directory first, then filename keywords, else other."""
    for part in folders:
        slot = _SLOT_DIRECTORIES.get(part.lower())
        if slot is not None:
            return slot
    name = name.lower()
    for keyword, slot in _FILENAME_KEYWORDS:
        if keyword in name:
            return slot
    return DocumentSlot.OTHER


def _form_structure(data: bytes) -> tuple[str, TypologyId, list[ET.Element]]:
    """The structural check of a form.xml: well-formed XML, an
    ``application`` root with a plain id and a known typology, and declared
    fields that are unique and include every mandatory one. Returns
    (app_id, typology, the declared field elements); raises FormParseError.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormParseError(f"malformed XML: {exc}") from None
    if root.tag != "application":
        raise FormParseError(f"unexpected root element {root.tag!r}")
    app_id = (root.get("id") or "").strip()
    if not app_id:
        raise FormParseError("missing application id attribute")
    # the id names the application's output directory, so it must stay one
    # plain path component
    if app_id in (".", "..") or any(c in app_id for c in "/\\\0"):
        raise FormParseError(f"application id {app_id!r} is not a plain name")
    try:
        typology = TypologyId.parse(root.get("typology") or "")
    except ValueError as exc:
        raise FormParseError(str(exc)) from None

    declared = root.find("declared")
    fields = [] if declared is None else list(declared)
    seen: set[str] = set()
    for element in fields:
        if element.tag in seen:
            raise FormParseError(f"duplicate declared field {element.tag!r}")
        seen.add(element.tag)
    missing = [f for f in mandatory_fields(typology) if f not in seen]
    if missing:
        raise FormParseError(f"missing mandatory fields: {', '.join(sorted(missing))}")
    return app_id, typology, fields


def parse_form_xml(data: bytes) -> tuple[str, TypologyId, FormData]:
    """Parse form.xml into (app_id, typology, declared fields).

    A form that fails the structural check (malformed XML, a bad root, id
    or typology, duplicate or missing fields) is a load failure; malformed
    individual values are kept as text with a warning.
    """
    app_id, typology, fields = _form_structure(data)
    form = FormData()
    for element in fields:
        form.declared[element.tag] = parse_declared(element.tag, element.get("type", "text"),
                                                    element.text or "")
    return app_id, typology, form


def _suffix(name: str) -> str:
    """``PurePath(name).suffix`` of a file name, with no PurePath."""
    at = name.rfind(".")
    return name[at:] if 0 < at < len(name) - 1 else ""


def admit_file(shown: str, name: str, size: int, slot: DocumentSlot,
               extensions: dict[str, FileKind], cap_bytes: int) -> FileKind | UnsupportedNotice:
    """The one rule for every submitted file, loose or inside an archive:
    its FileKind when ``extensions`` names the suffix of its file name
    ``name`` and it is at most ``cap_bytes`` long, else the notice, shown
    as ``shown``, that sends it to a human."""
    suffix = _suffix(name)
    kind = extensions.get(suffix.lower())
    if kind is None:
        return UnsupportedNotice(
            path=shown, reason="unsupported_extension",
            message=f"unsupported file type {suffix!r}: {name} requires manual review",
            slot=slot)
    if size > cap_bytes:
        return UnsupportedNotice(
            path=shown, reason="oversize",
            message=f"{name} is {size / 1e6:.1f} MB, above the {cap_bytes / 1e6:.0f} MB cap",
            slot=slot)
    return kind


def _walk_files(directory: str, name: str, folders: tuple[str, ...] = ()):
    """Yield (corpus name, DirEntry, folders) for every regular file under
    ``directory``, whose corpus name is ``name``, in ``sorted(Path)``
    order, with the names of the folders between ``directory`` and the
    file; an entry's ``path`` is ``directory`` joined with its name. Like
    ``Path.rglob``, it does not descend into symlinked directories and
    skips directories it may not read or that are gone."""
    try:
        with os.scandir(directory) as it:
            entries = sorted(it, key=lambda e: e.name)
    except (PermissionError, FileNotFoundError, NotADirectoryError):
        return
    for entry in entries:
        rel = f"{name}/{entry.name}"
        if entry.is_dir(follow_symlinks=False):
            yield from _walk_files(entry.path, rel, (*folders, entry.name))
        elif entry.is_file():
            yield rel, entry, folders


def list_files(app_dir: Path) -> list[str]:
    """The corpus name of every regular file under the application
    directory ``app_dir``, in ``sorted(Path)`` order."""
    return [rel for rel, _, _ in _walk_files(os.fspath(app_dir), app_dir.name)]


def _form_bytes(app_dir: Path, cap_bytes: int) -> bytes:
    """The form of an application directory, read no further than one byte
    past ``cap_bytes``. Raises FormParseError, also when it is longer."""
    form_path = os.path.join(app_dir, FORM_FILENAME)
    if not os.path.isfile(form_path):
        raise FormParseError(f"{FORM_FILENAME} not found")
    with open(form_path, "rb", buffering=0) as file:  # one read of the size it needs
        data = file.read(min(os.fstat(file.fileno()).st_size, cap_bytes) + 1)
    if len(data) > cap_bytes:
        raise FormParseError(f"{FORM_FILENAME} is above the {cap_bytes / 1e6:g} MB cap")
    return data


def scan_forms(root: Path, max_file_mb: float = DEFAULT_MAX_FILE_MB) -> FormScan:
    """The first phase of a scan: check the structure of the form of every
    application subdirectory, and visit no other file of one whose form
    passes; its values are parsed in the second phase.

    An application whose form does not load, is longer than ``max_file_mb``
    or declares an id that another directory's form declares too, is
    recorded as a LoadFailure with every file under its directory, and the
    scan moves on; only an unreadable corpus root is an error. A symlink to
    a directory is not followed: it is named in ``skipped_links``.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"corpus root not found: {root}")
    cap_bytes = int(max_file_mb * 1_000_000)
    forms = FormScan(applications=[], failures=[])
    with os.scandir(root) as it:
        entries = sorted(it, key=lambda e: e.name)
    for entry in entries:
        path = root / entry.name
        if entry.is_dir(follow_symlinks=False):
            try:
                forms.applications.append((_form_structure(_form_bytes(path, cap_bytes))[0],
                                           path))
            except FormParseError as exc:
                forms.failures.append(LoadFailure(app_id=entry.name, path=entry.name,
                                                  reason=str(exc), files=list_files(path)))
        elif entry.is_dir():  # a symlink to a directory
            forms.skipped_links.append(entry.name)
        elif entry.is_file():
            forms.loose_files.append(entry.name)
    declared = Counter(app_id for app_id, _ in forms.applications)
    for app_id, path in forms.applications:
        if declared[app_id] > 1:
            forms.failures.append(LoadFailure(
                app_id=app_id, path=path.name, files=list_files(path),
                reason=f"application id {app_id!r} declared by {declared[app_id]} directories"))
    forms.applications = sorted((app for app in forms.applications if declared[app[0]] == 1),
                                key=lambda app: app[0])
    return forms


def scan_application(app_id: str, app_dir: Path, max_file_mb: float = DEFAULT_MAX_FILE_MB,
                     extensions: dict[str, FileKind] = SUPPORTED_EXTENSIONS) -> ApplicationBundle:
    """The second phase of a scan: build the bundle of the application
    ``app_id`` from its directory, recording every file visited on it.
    ``extensions`` maps each lower-case suffix that is a document to its
    FileKind. Raises FormParseError, also when the form now names
    another application.

    Each archive is expanded where the walk admits it: its members take its
    place among the documents, stay in the archive and are read from it,
    and its notices follow those of the loose files. Nesting is limited to
    one level: a member that ``extensions`` makes an archive too becomes an
    archive_depth_exceeded notice. An archive gives all its members or one
    notice. Each archive is opened once, and the bundle's ``archives``
    holds it open until the caller closes them; when the scan raises, every
    archive it opened is closed."""
    cap_bytes = int(max_file_mb * 1_000_000)
    form_id, typology, form = parse_form_xml(_form_bytes(app_dir, cap_bytes))
    if form_id != app_id:
        raise FormParseError(f"{FORM_FILENAME} now names application {form_id!r}, not {app_id!r}")

    files: list[str] = []
    documents: list[DocumentRef] = []
    unsupported: list[UnsupportedNotice] = []
    archive_notices: list[UnsupportedNotice] = []
    with ExitStack() as archives:
        for rel, entry, folders in _walk_files(os.fspath(app_dir), app_dir.name):
            files.append(rel)
            name = entry.name
            if (name == FORM_FILENAME and not folders) or name.endswith(SIDECAR_SUFFIX):
                continue
            slot = _slot_of(folders, name)
            admitted = admit_file(rel, name, entry.stat().st_size, slot, extensions, cap_bytes)
            if isinstance(admitted, UnsupportedNotice):
                unsupported.append(admitted)
            elif admitted is FileKind.ZIP:
                members, notices = _read_archive(entry.path, rel, name, slot, extensions,
                                                 cap_bytes, archives)
                documents.extend(members)
                archive_notices.extend(notices)
            else:
                documents.append(DocumentRef(entry.path, admitted, slot, corpus_path=rel))
        return ApplicationBundle(app_id=app_id, typology=typology, form=form,
                                 documents=documents, unsupported=unsupported + archive_notices,
                                 files=files, archives=archives.pop_all())


def scan_corpus(root: Path, max_file_mb: float = DEFAULT_MAX_FILE_MB,
                extensions: dict[str, FileKind] = SUPPORTED_EXTENSIONS) -> ScanResult:
    """One bundle per application subdirectory, ordered by app id: both
    phases of the scan, ``scan_forms`` and then ``scan_application`` on each
    application, at once. Every regular file of the corpus is recorded on
    its bundle, its failure or in ``loose_files``. Each bundle holds its
    archives open: the caller closes each bundle's ``archives``. Raises
    FormParseError when a form changes between the two phases.
    """
    forms = scan_forms(root, max_file_mb)
    bundles = [scan_application(app_id, app_dir, max_file_mb, extensions)
               for app_id, app_dir in forms.applications]
    return ScanResult(bundles=bundles, failures=forms.failures, loose_files=forms.loose_files)


def _read_archive(path: str, corpus_path: str, name: str, slot: DocumentSlot,
                  extensions: dict[str, FileKind], cap_bytes: int,
                  archives: ExitStack) -> tuple[list[DocumentRef], list[UnsupportedNotice]]:
    """The documents and notices of the members of the archive at ``path``,
    whose corpus name is ``corpus_path``, file name ``name`` and slot
    ``slot``: each admitted member read once to its end and none written
    anywhere; one notice instead when the archive lists more than
    MAX_ARCHIVE_ENTRIES entries or cannot be read to its end. The archive
    is opened once, onto ``archives``, and its documents are read through
    that handle."""
    documents: list[DocumentRef] = []
    notices: list[UnsupportedNotice] = []
    try:
        archive = archives.enter_context(zipfile.ZipFile(path))
        entries = archive.infolist()
        if len(entries) > MAX_ARCHIVE_ENTRIES:
            return [], [UnsupportedNotice(corpus_path, "too_many_members", (
                f"{name} lists {len(entries)} entries, above the "
                f"{MAX_ARCHIVE_ENTRIES} cap"), slot)]
        if len({entry.filename for entry in entries}) < len(entries):
            raise zipfile.BadZipFile("two entries share a name")  # a member is read by name
        for member in entries:
            member_path = PurePath(member.filename)
            member_name = member_path.name
            display = f"{corpus_path}!{member.filename}"
            if member.is_dir() or not member_name or member_name.startswith("."):
                continue
            member_slot = infer_slot(member_path)
            if extensions.get(_suffix(member_name).lower()) is FileKind.ZIP:
                notices.append(UnsupportedNotice(
                    path=display, reason="archive_depth_exceeded",
                    message=f"nested archive {member.filename} not expanded; review manually",
                    slot=member_slot))
                continue
            if member_name.endswith(SIDECAR_SUFFIX):
                continue  # read by the mock backend with its document
            admitted = admit_file(display, member_name, member.file_size, member_slot,
                                  extensions, cap_bytes)
            if isinstance(admitted, UnsupportedNotice):
                notices.append(admitted)
                continue
            with archive.open(member) as stream:  # checks its CRC at the end
                while stream.read(1 << 20):
                    pass
            documents.append(DocumentRef(path=path, kind=admitted, slot=member_slot,
                                         member=member.filename, archive=archive,
                                         corpus_path=corpus_path))
    except zipfile.BadZipFile:
        return [], [UnsupportedNotice(
            path=corpus_path, reason="corrupt_archive",
            message=f"{name} could not be read as a ZIP archive", slot=slot)]
    return documents, notices


def map_documents(bundle: ApplicationBundle) -> ApplicationBundle:
    """``bundle`` as it is: the scan gives every document its final slot,
    from its upload directory first, then its file name; folders inside an
    archive name no upload directory."""
    return bundle
