import io
import zipfile
from contextlib import ExitStack, closing
from pathlib import Path

import pytest

from claimcheck.backends import MockBackend, RemoteBackend, RemoteConfig, load_sidecar
from claimcheck.extract import ExtractionSchema, TagSpec, ValueType
from claimcheck.ingest import (
    MAX_ARCHIVE_ENTRIES,
    SUPPORTED_EXTENSIONS,
    ApplicationBundle,
    DocumentRef,
    DocumentSlot,
    FileKind,
    FormParseError,
    TypologyId,
    UnsupportedNotice,
    infer_slot,
    map_documents,
    parse_form_xml,
    scan_corpus,
)
from claimcheck.stubserver import FixtureStubServer

MINIMAL_FORM = """<?xml version='1.0' encoding='utf-8'?>
<application id="{app_id}" typology="1">
 <declared>
  <applicant_name type="text">Maria Santos</applicant_name>
  <applicant_tax_id type="tax_id">123456789</applicant_tax_id>
  <company_tax_id type="tax_id">509442013</company_tax_id>
  <property_address type="text">Rua A 1, Lisboa</property_address>
  <property_type type="text">urbano</property_type>
  <property_article type="text">123</property_article>
  <building_use type="text">habitacao</building_use>
  <gross_area type="number">120</gross_area>
  <habitation_license_year type="number">2001</habitation_license_year>
  <submission_date type="date">10/06/2023</submission_date>
  <invoice_number type="text">FT 1</invoice_number>
  <invoice_value type="money">1.500,00</invoice_value>
  <intervention_type type="text">substituicao de janelas</intervention_type>
  <windows_details type="text">4 janelas PVC</windows_details>
  <declared_unit_count type="number">4</declared_unit_count>
 </declared>
</application>
"""


def write_app(root: Path, app_id: str, files: dict[str, bytes] | None = None) -> Path:
    app_dir = root / app_id
    app_dir.mkdir(parents=True)
    (app_dir / "form.xml").write_text(MINIMAL_FORM.format(app_id=app_id), encoding="utf-8")
    for name, data in (files or {}).items():
        path = app_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return app_dir


@pytest.fixture()
def scan():
    """``scan_corpus``, with the archives of every bundle it returns closed
    at the end of the test."""
    with ExitStack() as stack:
        def scan(root, *args):
            result = scan_corpus(root, *args)
            for bundle in result.bundles:
                stack.enter_context(bundle.archives)
            return result

        yield scan


def zip_bytes(members: dict[str, bytes], compression: int = zipfile.ZIP_STORED) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


class TestClassifyFile:
    """The scan classifies a file by its extension, in any case; it never
    sniffs the content."""

    @staticmethod
    def classify(tmp_path, name: str) -> FileKind | UnsupportedNotice:
        write_app(tmp_path, "app_a", {name: b"x"})
        bundle = scan_corpus(tmp_path).bundles[0]
        return bundle.documents[0].kind if bundle.documents else bundle.unsupported[0]

    def test_case_insensitive_pdf(self, tmp_path):
        assert self.classify(tmp_path, "invoice.PDF") is FileKind.PDF

    def test_jpeg_alias(self, tmp_path):
        assert self.classify(tmp_path, "scan.JPEG") is FileKind.JPG

    def test_zip_expanded_where_found(self, tmp_path, scan):
        write_app(tmp_path, "app_a", {"fotos/photos.ZIP": zip_bytes({"foto.png": b"x"})})
        [doc] = scan(tmp_path).bundles[0].documents
        assert (doc.display_path, doc.kind, doc.origin) == (
            "app_a/fotos/photos.ZIP!foto.png", FileKind.PNG, "archive_member")

    def test_docx_unsupported(self, tmp_path, scan):
        notice = self.classify(tmp_path, "docs.docx")
        assert isinstance(notice, UnsupportedNotice)
        assert notice.path == "app_a/docs.docx"
        assert notice.reason == "unsupported_extension"
        assert notice.message
        # a ZIP member is admitted by the same rule, in the same words
        write_app(tmp_path, "app_b", {"anexos.zip": zip_bytes({"docs.docx": b"x"})})
        bundle = scan(tmp_path).bundles[1]
        member = bundle.unsupported[0]
        assert member.path == "app_b/anexos.zip!docs.docx"
        assert (member.reason, member.message) == (notice.reason, notice.message)


class TestScanCorpus:
    def test_empty_root(self, tmp_path):
        result = scan_corpus(tmp_path)
        assert result.bundles == [] and result.failures == []

    def test_missing_form_is_load_failure(self, tmp_path):
        write_app(tmp_path, "app_a", {"fatura.pdf": b"x"})
        write_app(tmp_path, "app_b")
        broken = tmp_path / "app_c"
        broken.mkdir()
        (broken / "fatura.pdf").write_bytes(b"x")
        result = scan_corpus(tmp_path)
        assert [b.app_id for b in result.bundles] == ["app_a", "app_b"]
        assert len(result.failures) == 1
        assert result.failures[0].app_id == "app_c"
        assert "form.xml" in result.failures[0].reason

    def test_missing_root_is_error(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            scan_corpus(tmp_path / "nope")

    def test_every_file_accounted(self, tmp_path):
        write_app(tmp_path, "app_a", {
            "fatura.pdf": b"x", "notes.docx": b"y", "recibo.pdf": b"z",
        })
        result = scan_corpus(tmp_path)
        bundle = result.bundles[0]
        assert len(bundle.documents) == 2
        assert len(bundle.unsupported) == 1
        assert bundle.unsupported[0].reason == "unsupported_extension"

    def test_oversize_cap(self, tmp_path):
        write_app(tmp_path, "app_a", {"fatura.pdf": b"x" * 2_000_001})
        result = scan_corpus(tmp_path, max_file_mb=2)
        bundle = result.bundles[0]
        assert bundle.documents == []
        assert bundle.unsupported[0].reason == "oversize"

    def test_scan_records_every_file_it_visits(self, tmp_path):
        root = tmp_path / "corpus"
        app_dir = write_app(root, "app_a", {
            "fatura.pdf": b"x", "fatura.pdf.fields.json": b"{}", "notes.docx": b"y",
            "fotos/foto_1.png": b"z", "fotos/raw/foto_2.png": b"w",
        })
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "recibo.pdf").write_bytes(b"r")
        (app_dir / "linked").symlink_to(outside, target_is_directory=True)
        (app_dir / "recibo.pdf").symlink_to(outside / "recibo.pdf")
        (root / "labels.csv").write_text("app_id\n")
        result = scan_corpus(root)
        bundle = result.bundles[0]
        # sorted(Path) order; the symlinked file is visited, the symlinked
        # directory is not followed
        assert bundle.files == [
            "app_a/fatura.pdf", "app_a/fatura.pdf.fields.json", "app_a/form.xml",
            "app_a/fotos/foto_1.png", "app_a/fotos/raw/foto_2.png", "app_a/notes.docx",
            "app_a/recibo.pdf"]
        assert [Path(d.path).name for d in bundle.documents] == [
            "fatura.pdf", "foto_1.png", "foto_2.png", "recibo.pdf"]
        assert result.loose_files == ["labels.csv"]

    def test_failed_application_files_are_recorded(self, tmp_path):
        broken = tmp_path / "app_b"
        (broken / "fotos").mkdir(parents=True)
        (broken / "fotos" / "foto_1.png").write_bytes(b"x")
        (broken / "form.xml").write_text("<broken")
        result = scan_corpus(tmp_path)
        assert [f.app_id for f in result.failures] == ["app_b"]
        assert result.failures[0].files == ["app_b/form.xml", "app_b/fotos/foto_1.png"]
        assert result.loose_files == []

    def test_deterministic(self, tmp_path):
        write_app(tmp_path, "app_a", {"fatura.pdf": b"x", "b/recibo.pdf": b"y"})
        first = scan_corpus(tmp_path)
        second = scan_corpus(tmp_path)
        assert [d.path for d in first.bundles[0].documents] == \
               [d.path for d in second.bundles[0].documents]


class TestExpandArchives:
    def test_no_zip_opens_no_archive(self, tmp_path, opened_archives):
        app_dir = write_app(tmp_path, "app_a", {"fatura.pdf": b"x"})
        bundle = scan_corpus(tmp_path).bundles[0]
        assert bundle.documents == [DocumentRef(
            str(app_dir / "fatura.pdf"), FileKind.PDF, DocumentSlot.INVOICE,
            corpus_path="app_a/fatura.pdf")]
        assert opened_archives == []

    def test_members_extracted_and_classified(self, tmp_path, scan):
        payload = zip_bytes({
            "foto1.png": b"a", "foto2.png": b"b", "foto3.png": b"c", "doc.docx": b"d",
        })
        write_app(tmp_path, "app_a", {"fotos.zip": payload})
        bundle = scan(tmp_path).bundles[0]
        kinds = sorted(d.kind for d in bundle.documents)
        assert kinds == [FileKind.PNG, FileKind.PNG, FileKind.PNG]
        assert all(d.origin == "archive_member" for d in bundle.documents)
        assert [n.reason for n in bundle.unsupported] == ["unsupported_extension"]
        # conservation: 3 supported members, no zip left behind
        assert not any(d.kind is FileKind.ZIP for d in bundle.documents)

    def test_nested_zip_flagged(self, tmp_path, scan):
        # a member is an archive by the kind the run gives its suffix, as a
        # loose file is: here --allow-ext jar=zip; and it is one even above
        # the size cap
        inner = zip_bytes({"x.png": b"x" * 1_000_001})
        payload = zip_bytes({"outer.png": b"a", "inner.jar": inner, "nested.zip": inner},
                            zipfile.ZIP_DEFLATED)
        write_app(tmp_path, "app_a", {"docs.zip": payload})
        bundle = scan(tmp_path, 1, {**SUPPORTED_EXTENSIONS, ".jar": FileKind.ZIP}).bundles[0]
        assert [d.display_path for d in bundle.documents] == ["app_a/docs.zip!outer.png"]
        assert [(n.path, n.reason) for n in bundle.unsupported] == [
            ("app_a/docs.zip!inner.jar", "archive_depth_exceeded"),
            ("app_a/docs.zip!nested.zip", "archive_depth_exceeded")]

    def test_corrupt_zip(self, tmp_path, scan):
        write_app(tmp_path, "app_a", {"broken.zip": b"this is not a zip"})
        bundle = scan(tmp_path).bundles[0]
        assert bundle.documents == []
        assert [n.reason for n in bundle.unsupported] == ["corrupt_archive"]

    def test_archive_unreadable_to_its_end_gives_only_its_notice(self, tmp_path, scan):
        payload = bytearray(zip_bytes({"foto_01.png": b"first", "foto_02.png": b"second"}))
        at = payload.index(b"second")  # members are stored, so their bytes are verbatim
        payload[at:at + 6] = b"SECOND"  # the second member now fails its CRC check
        write_app(tmp_path, "app_a", {"fotos.zip": bytes(payload)})
        bundle = scan(tmp_path).bundles[0]
        assert bundle.documents == []
        assert [n.reason for n in bundle.unsupported] == ["corrupt_archive"]
        assert bundle.unsupported[0].message == "fotos.zip could not be read as a ZIP archive"

    def test_entries_sharing_a_name_make_the_archive_corrupt(self, tmp_path, scan):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive, pytest.warns(UserWarning, match="Duplicate"):
            archive.writestr("fatura.pdf", b"first")
            archive.writestr("fatura.pdf", b"second")
        write_app(tmp_path, "app_a", {"anexos.zip": buffer.getvalue()})
        bundle = scan(tmp_path).bundles[0]
        assert bundle.documents == []
        assert [n.reason for n in bundle.unsupported] == ["corrupt_archive"]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_archive_entries_are_capped(self, tmp_path, extra, scan):
        count = MAX_ARCHIVE_ENTRIES + extra
        write_app(tmp_path, "app_a", {
            "fotos.zip": zip_bytes({f"foto_{i:03d}.png": b"p" for i in range(count)})})
        bundle = scan(tmp_path).bundles[0]
        if not extra:
            assert len(bundle.documents) == count and bundle.unsupported == []
            return
        assert bundle.documents == []
        [notice] = bundle.unsupported
        assert (notice.path, notice.reason) == ("app_a/fotos.zip", "too_many_members")
        assert notice.message == f"fotos.zip lists {count} entries, above the 256 cap"

    def test_sidecars_read_in_place_but_not_listed(self, tmp_path, scan):
        payload = zip_bytes({"fatura.pdf": b"x", "fatura.pdf.fields.json": b'{"n": 1}'})
        write_app(tmp_path, "app_a", {"docs.zip": payload})
        before = sorted(tmp_path.rglob("*"))
        bundle = scan(tmp_path).bundles[0]
        assert sorted(tmp_path.rglob("*")) == before
        assert [d.name for d in bundle.documents] == ["fatura.pdf"]
        assert bundle.documents[0].read_bytes() == b"x"
        assert load_sidecar(bundle.documents[0]) == {"n": 1}

    def test_members_sharing_a_base_name_stay_apart(self, tmp_path, scan):
        invoices = zip_bytes({
            "obra1/fatura.pdf": b"first", "obra1/fatura.pdf.fields.json": b'{"n": 1}',
            "obra2/fatura.pdf": b"second", "obra2/fatura.pdf.fields.json": b'{"n": 2}',
            "../../fuga/recibo.pdf": b"up",
        })
        write_app(tmp_path, "app_a", {
            "anexos.zip": invoices,
            "a/docs.zip": zip_bytes({"foto.png": b"a"}),
            "b/docs.zip": zip_bytes({"foto.png": b"b"}),
        })
        before = sorted(tmp_path.rglob("*"))
        bundle = scan(tmp_path).bundles[0]
        assert sorted(tmp_path.rglob("*")) == before
        assert [d.display_path for d in bundle.documents] == [
            "app_a/a/docs.zip!foto.png",
            "app_a/anexos.zip!obra1/fatura.pdf",
            "app_a/anexos.zip!obra2/fatura.pdf",
            "app_a/anexos.zip!../../fuga/recibo.pdf",
            "app_a/b/docs.zip!foto.png",
        ]
        assert [d.name for d in bundle.documents] == [
            "foto.png", "fatura.pdf", "fatura.pdf", "recibo.pdf", "foto.png"]
        assert [d.read_bytes() for d in bundle.documents] == [
            b"a", b"first", b"second", b"up", b"b"]
        assert [load_sidecar(d) for d in bundle.documents] == [{}, {"n": 1}, {"n": 2}, {}, {}]

    @staticmethod
    def write_three_archives(root: Path) -> Path:
        return write_app(root, "app_a", {
            "a/docs.zip": zip_bytes({"foto.png": b"a"}),
            "anexos.zip": zip_bytes({
                "obra1/fatura.pdf": b"1", "obra1/fatura.pdf.fields.json": b'{"n": 1}',
                "obra2/fatura.pdf": b"2", "obra2/fatura.pdf.fields.json": b'{"n": 2}',
                "recibo.pdf": b"3", "recibo.pdf.fields.json": b'{"n": 3}'}),
            "b/docs.zip": zip_bytes({"foto.png": b"b"}),
        })

    def test_mock_backend_opens_each_archive_once_for_its_members(self, tmp_path,
                                                                  opened_archives):
        app_dir = self.write_three_archives(tmp_path)
        schema = ExtractionSchema(DocumentSlot.OTHER, (TagSpec("n", ValueType.NUMBER),))
        bundle = scan_corpus(tmp_path).bundles[0]
        with bundle.archives:
            answers = [MockBackend().fetch(d, schema).fields["n"] for d in bundle.documents]
        assert answers == ["None", "1", "2", "3", "None"]
        # the scan opens each archive, and every later read goes through that handle
        assert [Path(a.filename).relative_to(app_dir) for a in opened_archives] == [
            Path("a/docs.zip"), Path("anexos.zip"), Path("b/docs.zip")]
        assert all(archive.fp is None for archive in opened_archives)

    def test_remote_backend_opens_each_archive_once_for_its_members(self, tmp_path,
                                                                    opened_archives):
        app_dir = self.write_three_archives(tmp_path)
        schema = ExtractionSchema(DocumentSlot.OTHER, (TagSpec("n", ValueType.NUMBER),))
        bundle = scan_corpus(tmp_path).bundles[0]
        with FixtureStubServer(tmp_path) as stub, bundle.archives, \
                closing(RemoteBackend(RemoteConfig(endpoint=stub.url))) as remote:
            for doc in bundle.documents:
                remote.fetch(doc, schema)
        assert [Path(a.filename).relative_to(app_dir) for a in opened_archives] == [
            Path("a/docs.zip"), Path("anexos.zip"), Path("b/docs.zip")]
        assert all(archive.fp is None for archive in opened_archives)


class TestParseFormXml:
    def test_money_field_parsed(self):
        app_id, typology, form = parse_form_xml(
            MINIMAL_FORM.format(app_id="app_1").encode())
        assert app_id == "app_1"
        assert str(typology) == "1"
        assert form.get("invoice_value").value.amount_cents == 150000

    def test_empty_declared(self):
        xml = b'<application id="a" typology="1"><declared/></application>'
        with pytest.raises(FormParseError, match="missing mandatory"):
            parse_form_xml(xml)

    def test_duplicate_field_id_fails(self):
        xml = (b'<application id="a" typology="1"><declared>'
               b'<x type="text">1</x><x type="text">2</x>'
               b'</declared></application>')
        with pytest.raises(FormParseError, match="duplicate declared field 'x'"):
            parse_form_xml(xml)

    def test_malformed_xml_fails(self):
        with pytest.raises(FormParseError, match="malformed XML"):
            parse_form_xml(b"<application")

    def test_unknown_typology_fails(self):
        xml = MINIMAL_FORM.format(app_id="a").replace('typology="1"', 'typology="9"')
        with pytest.raises(FormParseError, match="unknown typology"):
            parse_form_xml(xml.encode())

    def test_unknown_fields_preserved(self):
        xml = MINIMAL_FORM.format(app_id="a").replace(
            "</declared>", '<mystery_field type="text">kept</mystery_field></declared>')
        _, _, form = parse_form_xml(xml.encode())
        assert form.get("mystery_field").value == "kept"

    def test_malformed_value_kept_with_warning(self):
        xml = MINIMAL_FORM.format(app_id="a").replace("1.500,00", "mil e tal")
        _, _, form = parse_form_xml(xml.encode())
        declared = form.get("invoice_value")
        assert declared.warning and declared.raw == "mil e tal"


    @pytest.mark.parametrize("app_id", [".", "..", "../escaped", "a/b", "a\\b", "/abs"])
    def test_id_must_be_one_plain_path_component(self, app_id):
        xml = MINIMAL_FORM.format(app_id="PLACEHOLDER").replace("PLACEHOLDER", app_id)
        with pytest.raises(FormParseError, match="not a plain name"):
            parse_form_xml(xml.encode())


class TestMapDocuments:
    def test_upload_directory_wins(self, tmp_path):
        write_app(tmp_path, "app_a", {"invoice/scan001.pdf": b"x"})
        bundle = map_documents(scan_corpus(tmp_path).bundles[0])
        assert bundle.documents[0].slot is DocumentSlot.INVOICE

    def test_filename_keyword(self, tmp_path):
        write_app(tmp_path, "app_a", {"recibo_2023.pdf": b"x"})
        bundle = map_documents(scan_corpus(tmp_path).bundles[0])
        assert bundle.documents[0].slot is DocumentSlot.RECEIPT

    def test_fallback_other(self, tmp_path):
        write_app(tmp_path, "app_a", {"scan001.jpg": b"x"})
        bundle = map_documents(scan_corpus(tmp_path).bundles[0])
        assert bundle.documents[0].slot is DocumentSlot.OTHER

    def test_keyword_table(self):
        assert infer_slot(Path("mcp_dgeg.pdf")) is DocumentSlot.PRIOR_COMMUNICATION
        assert infer_slot(Path("certidao_predial.pdf")) is DocumentSlot.PROPERTY_REGISTRY
        assert infer_slot(Path("certificado_energetico.pdf")) is DocumentSlot.ENERGY_CERTIFICATE
        assert infer_slot(Path("ficha_tecnica_x.pdf")) is DocumentSlot.EQUIPMENT_DATASHEET
        assert infer_slot(Path("foto_1.png")) is DocumentSlot.PHOTO


class TestTypologyId:
    def test_parse_subtypology(self):
        tid = TypologyId.parse("2.1.1")
        assert tid.major == 2 and tid.sub_path == (1, 1)
        assert str(tid) == "2.1.1"

    def test_unknown_rejected_with_valid_list(self):
        with pytest.raises(ValueError, match="valid ids"):
            TypologyId.parse("2.9")


def test_scan_expand_and_map_end_to_end(tmp_path, scan):
    write_app(tmp_path, "app_a", {
        "fatura.pdf": b"x",
        "fotos.zip": zip_bytes({"foto1.png": b"a", "leia-me.txt": b"b"}),
        "notas.docx": b"n",
        "recibo.pdf": b"r",
    })
    bundle = map_documents(scan(tmp_path).bundles[0])
    assert isinstance(bundle, ApplicationBundle)
    # members take their archive's place; its notices follow the loose files'
    assert [(d.display_path, d.slot.value) for d in bundle.documents] == [
        ("app_a/fatura.pdf", "invoice"), ("app_a/fotos.zip!foto1.png", "photo"),
        ("app_a/recibo.pdf", "receipt")]
    assert [n.path for n in bundle.unsupported] == [
        "app_a/notas.docx", "app_a/fotos.zip!leia-me.txt"]
