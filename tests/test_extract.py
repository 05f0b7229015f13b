import base64
import json
import os
import pickle
import socket
import threading
import time
import zipfile
from contextlib import closing, contextmanager
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from claimcheck.backends import (
    BackendError,
    BackendResponse,
    MockBackend,
    RemoteBackend,
    RemoteConfig,
    interpret_sidecar,
)
from claimcheck.extract import (
    ExtractedValue,
    ValueState,
    classify_mcp,
    extract,
    schema_for,
)
from claimcheck.gencorpus import GenOptions, doc_bytes, write_corpus
from claimcheck.ingest import (
    DocumentRef,
    DocumentSlot,
    FileKind,
    TypologyId,
    scan_application,
    scan_forms,
)
from claimcheck.normalize import CanonicalName, DeclaredValue, Money
from claimcheck.rules import CheckOutcome, CheckStatus, Evidence
from claimcheck.stubserver import FixtureStubServer

T4 = TypologyId.parse("4")
T1 = TypologyId.parse("1")


def invoice_ref(tmp_path: Path, sidecar: dict | None = None) -> DocumentRef:
    doc = tmp_path / "fatura.pdf"
    doc.write_bytes(doc_bytes("app_x", "fatura.pdf"))
    if sidecar is not None:
        (tmp_path / "fatura.pdf.fields.json").write_text(json.dumps(sidecar))
    return DocumentRef(path=doc, kind=FileKind.PDF, slot=DocumentSlot.INVOICE)


class TestSchemaFor:
    def test_prior_communication_schema(self):
        schema = schema_for(DocumentSlot.PRIOR_COMMUNICATION, T4)
        assert len(schema.tags) == 9
        mcp_type = schema.tags[0]
        assert mcp_type.name == "mcp_type"
        assert mcp_type.variants == ("1", "2", "3", "4", "5")
        assert set(schema.tag_names()) >= {
            "NIF_NIPC_mcp", "address_mcp", "energy_source_mcp", "generator_power_mcp",
            "nominal_power_mcp", "date_start_mcp", "date_submission_mcp",
            "ID_energy_producer",
        }

    def test_photo_schema_empty(self):
        assert schema_for(DocumentSlot.PHOTO, T1).tags == ()

    def test_invoice_total_is_money(self):
        schema = schema_for(DocumentSlot.INVOICE, T1)
        by_name = {t.name: t for t in schema.tags}
        assert by_name["total_value"].value_type.value == "money"

    def test_deterministic(self):
        assert schema_for(DocumentSlot.RECEIPT, T1) == schema_for(DocumentSlot.RECEIPT, T4)


class TestExtract:
    def test_mock_round_trip(self, tmp_path):
        ref = invoice_ref(tmp_path, {"total_value": "150,00"})
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        value = result.fields["total_value"]
        assert value.state is ValueState.PRESENT
        assert value.value == Money(15000)
        assert value.raw == "150,00"

    def test_none_sentinel_is_absent(self, tmp_path):
        ref = invoice_ref(tmp_path, {"total_value": "None"})
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        assert result.fields["total_value"].state is ValueState.ABSENT

    def test_unparseable_date_is_type_mismatch(self, tmp_path):
        ref = invoice_ref(tmp_path, {"invoice_date": "soon"})
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        value = result.fields["invoice_date"]
        assert value.state is ValueState.UNREADABLE
        assert value.reason == "type_mismatch"

    def test_missing_sidecar_all_absent(self, tmp_path):
        ref = invoice_ref(tmp_path, sidecar=None)
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        assert all(v.state is ValueState.ABSENT for v in result.fields.values())

    def test_closed_world_keys(self, tmp_path):
        schema = schema_for(DocumentSlot.INVOICE, T1)
        ref = invoice_ref(tmp_path, {"total_value": "1,00", "unexpected_tag": "x"})
        result = extract(ref, schema, MockBackend())
        assert set(result.fields) == set(schema.tag_names())

    def test_meta_from_sidecar(self, tmp_path):
        ref = invoice_ref(tmp_path, {"__meta__": {"cost_eur": 0.02, "elapsed_ms": 1500}})
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        assert result.meta.cost_eur == 0.02
        assert result.meta.elapsed_ms == 1500
        assert result.meta.backend_id == "mock"


class TestClassifyMcp:
    def mcp_doc(self, tmp_path, sidecar):
        doc = tmp_path / "mcp.pdf"
        doc.write_bytes(b"x")
        (tmp_path / "mcp.pdf.fields.json").write_text(json.dumps(sidecar))
        ref = DocumentRef(path=doc, kind=FileKind.PDF, slot=DocumentSlot.PRIOR_COMMUNICATION)
        return extract(ref, schema_for(DocumentSlot.PRIOR_COMMUNICATION, T4), MockBackend())

    def test_category_read(self, tmp_path):
        assert self.mcp_doc(tmp_path, {"mcp_type": "1"}).doc_class == "1"

    def test_absent_is_none(self, tmp_path):
        assert self.mcp_doc(tmp_path, {"mcp_type": "None"}).doc_class is None

    def test_out_of_range_category(self, tmp_path):
        extracted = self.mcp_doc(tmp_path, {"mcp_type": "7"})
        assert extracted.fields["mcp_type"].state is ValueState.UNREADABLE
        assert extracted.doc_class is None
        assert classify_mcp(extracted) is None


class TestFaultModes:
    def test_drop_tag(self, tmp_path):
        ref = invoice_ref(tmp_path, {
            "total_value": "150,00", "invoice_number": "FT 1",
            "__faults__": [{"mode": "drop", "tag": "total_value"}],
        })
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        assert result.fields["total_value"].state is ValueState.ABSENT
        assert result.fields["invoice_number"].state is ValueState.PRESENT

    def test_corrupt_alters_one_digit(self, tmp_path):
        ref = invoice_ref(tmp_path, {
            "total_value": "150,00",
            "__faults__": [{"mode": "corrupt", "tag": "total_value"}],
        })
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        value = result.fields["total_value"]
        assert value.state is ValueState.PRESENT
        assert value.value != Money(15000)

    def test_fail_marks_all_unreadable(self, tmp_path):
        ref = invoice_ref(tmp_path, {"__faults__": [{"mode": "fail"}]})
        result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
        assert all(v.state is ValueState.UNREADABLE for v in result.fields.values())
        assert all(v.reason == "backend_error" for v in result.fields.values())

    def test_fault_locality(self, tmp_path):
        base = {"total_value": "150,00", "invoice_number": "FT 1", "buyer_name": "Ana"}
        clean_ref = invoice_ref(tmp_path, base)
        schema = schema_for(DocumentSlot.INVOICE, T1)
        clean = extract(clean_ref, schema, MockBackend())
        faulty_dir = tmp_path / "faulty"
        faulty_dir.mkdir()
        faulty_ref = invoice_ref(faulty_dir, {
            **base, "__faults__": [{"mode": "corrupt", "tag": "total_value"}],
        })
        faulty = extract(faulty_ref, schema, MockBackend())
        for name in schema.tag_names():
            if name == "total_value":
                assert faulty.fields[name] != clean.fields[name]
            else:
                assert faulty.fields[name] == clean.fields[name]


class _FailingHandler(BaseHTTPRequestHandler):
    calls = 0

    def do_POST(self):
        type(self).calls += 1
        self.send_error(500)

    def log_message(self, *args):
        pass


class _ThrottlingHandler(BaseHTTPRequestHandler):
    """Answers the first request with 429 (and ``retry_after``, if set),
    every later one with an invoice total."""

    calls = 0
    retry_after: str | None = None

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).calls += 1
        if type(self).calls == 1:
            self.send_response(429)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = json.dumps({"fields": {"total_value": "1,00"}, "cost_eur": 0.01,
                           "elapsed_ms": 5}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 server answering every POST with an invoice total. It
    counts connections and requests, keeps each request body, and with
    ``close_after_reply`` it closes each connection after one reply
    without saying so."""

    protocol_version = "HTTP/1.1"
    connections = 0
    requests = 0
    bodies: list[bytes] = []
    close_after_reply = False

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        type(self).bodies.append(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        type(self).requests += 1
        body = json.dumps({"fields": {"total_value": "1,00"}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if self.close_after_reply:
            self.close_connection = True

    def log_message(self, *args):
        pass


class _ProxyHandler(_KeepAliveHandler):
    """Forward proxy that answers every request itself and records what it
    was asked; it refuses every CONNECT tunnel."""

    seen: list[tuple[str, str, str | None, str | None]] = []

    def do_POST(self):
        type(self).seen.append(("POST", self.path, self.headers.get("Host"),
                                self.headers.get("Proxy-Authorization")))
        super().do_POST()

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        type(self).seen.append(("CONNECT", self.path, None,
                                self.headers.get("Proxy-Authorization")))
        self.send_error(403)


class _RedirectHandler(_FailingHandler):
    def do_POST(self):
        type(self).calls += 1
        self.send_response(307)
        self.send_header("Location", "/elsewhere")
        self.send_header("Content-Length", "0")
        self.end_headers()


@contextmanager
def serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestRemoteBackend:
    def test_stub_equivalent_to_mock(self, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "app_x").mkdir(parents=True)
        doc = corpus / "app_x" / "fatura.pdf"
        doc.write_bytes(doc_bytes("app_x", "fatura.pdf"))
        sidecar = {"total_value": "150,00", "buyer_name": "Ana Maria",
                   "__meta__": {"cost_eur": 0.01, "elapsed_ms": 900}}
        (corpus / "app_x" / "fatura.pdf.fields.json").write_text(json.dumps(sidecar))
        ref = DocumentRef(path=doc, kind=FileKind.PDF, slot=DocumentSlot.INVOICE)
        schema = schema_for(DocumentSlot.INVOICE, T1)
        with FixtureStubServer(corpus) as server, \
                closing(RemoteBackend(RemoteConfig(endpoint=server.url, backoff_s=0.01))) as remote:
            via_stub = extract(ref, schema, remote)
        via_mock = extract(ref, schema, MockBackend())
        assert via_stub.fields == via_mock.fields
        assert via_stub.meta.cost_eur == via_mock.meta.cost_eur
        assert via_stub.meta.elapsed_ms == via_mock.meta.elapsed_ms

    def test_retry_exhaustion_on_500(self, tmp_path):
        _FailingHandler.calls = 0
        server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with closing(RemoteBackend(RemoteConfig(endpoint=url, retries=3,
                                                    backoff_s=0.01))) as remote:
                ref = invoice_ref(tmp_path, {"total_value": "1,00"})
                result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), remote)
            assert all(v.state is ValueState.UNREADABLE for v in result.fields.values())
            assert all(v.reason == "backend_error" for v in result.fields.values())
            assert _FailingHandler.calls == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_zero_retries_still_attempts_once(self, tmp_path):
        (tmp_path / "app_x").mkdir()
        ref = invoice_ref(tmp_path / "app_x", {"total_value": "150,00"})
        with FixtureStubServer(tmp_path) as server, \
                closing(RemoteBackend(RemoteConfig(endpoint=server.url, retries=0))) as remote:
            result = extract(ref, schema_for(DocumentSlot.INVOICE, T1), remote)
        assert result.fields["total_value"].state is ValueState.PRESENT
        assert result.fields["total_value"].value == Money(15000)

    @pytest.mark.parametrize("retry_after, timeout_s, min_wait_s, max_wait_s", [
        ("0", 5.0, 0.0, 2.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 5.0, 0.0, 2.0),
        ("in 2 s", 5.0, 0.5, 4.0),
        ("3600", 0.5, 0.4, 3.0),
        (None, 5.0, 0.0, 2.0),
    ], ids=["delta-seconds", "past-http-date", "future-http-date", "capped-at-timeout",
            "no-header-jittered-backoff"])
    def test_429_is_retried_after_its_wait(self, tmp_path, retry_after, timeout_s,
                                           min_wait_s, max_wait_s):
        _ThrottlingHandler.calls = 0
        if retry_after == "in 2 s":
            retry_after = format_datetime(datetime.now(timezone.utc) + timedelta(seconds=2),
                                          usegmt=True)
        _ThrottlingHandler.retry_after = retry_after
        ref = invoice_ref(tmp_path)
        with serving(_ThrottlingHandler) as url, \
                closing(RemoteBackend(RemoteConfig(endpoint=url, retries=3, backoff_s=0.01,
                                                   timeout_s=timeout_s))) as remote:
            started = time.monotonic()
            response = remote.fetch(ref, schema_for(DocumentSlot.INVOICE, T1))
            waited = time.monotonic() - started
        assert response.fields == {"total_value": "1,00"}
        assert _ThrottlingHandler.calls == 2
        assert min_wait_s <= waited < max_wait_s

    def test_one_session_per_thread(self):
        with closing(RemoteBackend(RemoteConfig(endpoint="http://127.0.0.1:9"))) as remote:
            sessions = []
            threads = [threading.Thread(target=lambda: sessions.append(remote._session()))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            assert not any(thread.is_alive() for thread in threads)
            assert len({id(session) for session in sessions}) == 4
            assert remote._session() is remote._session()
            assert all(remote._session() is not session for session in sessions)

    def test_sequential_fetches_reuse_one_connection(self, tmp_path):
        _KeepAliveHandler.connections = _KeepAliveHandler.requests = 0
        _KeepAliveHandler.close_after_reply = False
        ref = invoice_ref(tmp_path)
        with serving(_KeepAliveHandler) as url, \
                closing(RemoteBackend(RemoteConfig(endpoint=url, retries=1))) as remote:
            for _ in range(5):
                response = remote.fetch(ref, schema_for(DocumentSlot.INVOICE, T1))
                assert response.fields == {"total_value": "1,00"}
        assert (_KeepAliveHandler.requests, _KeepAliveHandler.connections) == (5, 1)

    def test_close_closes_the_connection_of_every_thread(self, tmp_path):
        _KeepAliveHandler.close_after_reply = False
        ref = invoice_ref(tmp_path)
        schema = schema_for(DocumentSlot.INVOICE, T1)
        with serving(_KeepAliveHandler) as url:
            remote = RemoteBackend(RemoteConfig(endpoint=url, retries=1))
            threads = [threading.Thread(target=remote.fetch, args=(ref, schema))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            remote.fetch(ref, schema)
            assert len(remote._connections) == 4
            assert all(conn.sock is not None for conn in remote._connections)
            remote.close()
            assert all(conn.sock is None for conn in remote._connections)
            remote.fetch(ref, schema)  # reopens this thread's connection
            assert sum(conn.sock is not None for conn in remote._connections) == 1
            remote.close()
        assert all(conn.sock is None for conn in remote._connections)

    def test_archive_member_posts_its_own_bytes(self, tmp_path):
        archive = tmp_path / "anexos.zip"
        with zipfile.ZipFile(archive, "w", zipfile.ZIP_DEFLATED) as writer:
            writer.writestr("fatura.pdf", b"the other invoice")
            writer.writestr("obra/fatura.pdf", doc_bytes("app_x", "obra/fatura.pdf"))
        _KeepAliveHandler.bodies = []
        with zipfile.ZipFile(archive) as handle, serving(_KeepAliveHandler) as url, \
                closing(RemoteBackend(RemoteConfig(endpoint=url))) as remote:
            ref = DocumentRef(path=archive, kind=FileKind.PDF, slot=DocumentSlot.INVOICE,
                              origin="archive_member", member="obra/fatura.pdf", archive=handle)
            remote.fetch(ref, schema_for(ref.slot, T1))
        [body] = _KeepAliveHandler.bodies
        posted = base64.b64decode(json.loads(body)["content_b64"])
        assert posted == doc_bytes("app_x", "obra/fatura.pdf")

    def test_archive_replaced_after_expansion_is_still_read_as_admitted(self, tmp_path):
        def write_zip(path: Path, invoice: bytes, sidecar: bytes) -> None:
            with zipfile.ZipFile(path, "w") as writer:
                writer.writestr("fatura.pdf", invoice)
                writer.writestr("fatura.pdf.fields.json", sidecar)

        write_corpus(tmp_path, GenOptions(n_apps=1, seed=5))
        [(app_id, app_dir)] = scan_forms(tmp_path).applications
        archive = app_dir / "anexos.zip"
        invoice = doc_bytes(app_id, "fatura.pdf")
        write_zip(archive, invoice, b'{"total_value": "150,00"}')
        bundle = scan_application(app_id, app_dir)
        # the upload changes on disk after the scan admitted it
        write_zip(tmp_path / "next.zip", b"another invoice", b'{"total_value": "999,00"}')
        os.replace(tmp_path / "next.zip", archive)
        [ref] = [doc for doc in bundle.documents if doc.origin == "archive_member"]
        schema = schema_for(DocumentSlot.INVOICE, T1)
        _KeepAliveHandler.bodies = []
        with bundle.archives, serving(_KeepAliveHandler) as url, \
                closing(RemoteBackend(RemoteConfig(endpoint=url))) as remote:
            remote.fetch(ref, schema)
            mock = MockBackend().fetch(ref, schema)
        [body] = _KeepAliveHandler.bodies
        assert base64.b64decode(json.loads(body)["content_b64"]) == invoice
        assert mock.fields["total_value"] == "150,00"

    def test_silently_closed_keep_alive_is_reopened_without_an_attempt(self, tmp_path):
        _KeepAliveHandler.connections = _KeepAliveHandler.requests = 0
        _KeepAliveHandler.close_after_reply = True
        ref = invoice_ref(tmp_path)
        try:
            with serving(_KeepAliveHandler) as url, \
                    closing(RemoteBackend(RemoteConfig(endpoint=url, retries=1))) as remote:
                for _ in range(3):
                    time.sleep(0.05)  # let the server close the idle connection
                    response = remote.fetch(ref, schema_for(DocumentSlot.INVOICE, T1))
                    assert response.fields == {"total_value": "1,00"}
        finally:
            _KeepAliveHandler.close_after_reply = False
        assert (_KeepAliveHandler.requests, _KeepAliveHandler.connections) == (3, 3)

    def test_redirect_is_not_followed(self, tmp_path):
        _RedirectHandler.calls = 0
        with serving(_RedirectHandler) as url, \
                closing(RemoteBackend(RemoteConfig(endpoint=url, retries=3,
                                                   backoff_s=0.01))) as remote:
            with pytest.raises(BackendError, match="returned 307"):
                remote.fetch(invoice_ref(tmp_path), schema_for(DocumentSlot.INVOICE, T1))
        assert _RedirectHandler.calls == 1

    @pytest.fixture()
    def proxy_env(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        _ProxyHandler.connections = _ProxyHandler.requests = 0
        _ProxyHandler.seen = []
        with serving(_ProxyHandler) as url:
            host_port = urlsplit(url).netloc
            yield monkeypatch, f"http://claims:p%40ss@{host_port}"

    def test_http_proxy_carries_requests_to_an_unreachable_endpoint(self, tmp_path, proxy_env):
        monkeypatch, proxy = proxy_env
        monkeypatch.setenv("HTTP_PROXY", proxy)
        with closing(RemoteBackend(RemoteConfig(endpoint="http://127.0.0.1:9/v1",
                                                retries=1))) as remote:
            response = remote.fetch(invoice_ref(tmp_path), schema_for(DocumentSlot.INVOICE, T1))
        assert response.fields == {"total_value": "1,00"}
        auth = "Basic " + base64.b64encode(b"claims:p@ss").decode()
        assert _ProxyHandler.seen == [("POST", "http://127.0.0.1:9/v1/extract", "127.0.0.1:9",
                                       auth)]

    def test_no_proxy_bypasses_the_proxy(self, tmp_path, proxy_env):
        monkeypatch, proxy = proxy_env
        monkeypatch.setenv("HTTP_PROXY", proxy)
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        with closing(RemoteBackend(RemoteConfig(endpoint="http://127.0.0.1:9",
                                                retries=1))) as remote, \
                pytest.raises(BackendError):
            remote.fetch(invoice_ref(tmp_path), schema_for(DocumentSlot.INVOICE, T1))
        assert _ProxyHandler.seen == []

    def test_https_goes_through_a_connect_tunnel(self, tmp_path, proxy_env):
        monkeypatch, proxy = proxy_env
        monkeypatch.setenv("HTTPS_PROXY", proxy)
        with closing(RemoteBackend(RemoteConfig(endpoint="https://127.0.0.1:9",
                                                retries=1))) as remote, \
                pytest.raises(BackendError, match="Tunnel connection failed: 403"):
            remote.fetch(invoice_ref(tmp_path), schema_for(DocumentSlot.INVOICE, T1))
        auth = "Basic " + base64.b64encode(b"claims:p@ss").decode()
        assert _ProxyHandler.seen == [("CONNECT", "127.0.0.1:9", None, auth)]

    def test_stub_accepts_a_burst_of_connects(self, tmp_path):
        """More clients than the backend's default 16 in flight connect at
        once; none waits out a dropped SYN's 1 s retransmit."""
        with FixtureStubServer(tmp_path) as server:
            address = urlsplit(server.url)
            barrier = threading.Barrier(64)
            connect_s: list[float] = []

            def connect():
                barrier.wait()
                started = time.monotonic()
                with socket.create_connection((address.hostname, address.port), timeout=5):
                    connect_s.append(time.monotonic() - started)

            threads = [threading.Thread(target=connect) for _ in range(64)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert len(connect_s) == 64
        assert max(connect_s) < 0.5

    def test_missing_tag_in_response_is_absent(self):
        schema = schema_for(DocumentSlot.RECEIPT, T1)
        response = interpret_sidecar({"receipt_number": "RC 9"}, schema)
        assert response.fields["receipt_number"] == "RC 9"
        assert response.fields["amount"] == "None"

    @pytest.mark.parametrize("meta", [[1], "0.01", None])
    def test_a_sidecar_meta_that_is_no_object_is_a_backend_error(self, meta):
        schema = schema_for(DocumentSlot.RECEIPT, T1)
        with pytest.raises(BackendError, match="__meta__ is a"):
            interpret_sidecar({"receipt_number": "RC 9", "__meta__": meta}, schema)

    def test_connection_error_raises_backend_error(self, tmp_path):
        ref = invoice_ref(tmp_path, {})
        with closing(RemoteBackend(RemoteConfig(endpoint="http://127.0.0.1:9", retries=2,
                                                backoff_s=0.01, timeout_s=0.2))) as remote, \
                pytest.raises(BackendError):
            remote.fetch(ref, schema_for(DocumentSlot.INVOICE, T1))


def test_extracted_value_constructors():
    present = ExtractedValue.present(Money(1), "0,01")
    assert present.state is ValueState.PRESENT
    assert ExtractedValue.absent().state is ValueState.ABSENT
    unreadable = ExtractedValue.unreadable("type_mismatch", "x")
    assert unreadable.reason == "type_mismatch"


# the value objects built for nearly every tag, declared field and check
VALUE_OBJECTS = [
    pytest.param(lambda: ExtractedValue.present(Money(1), "0,01"), "raw", id="ExtractedValue"),
    pytest.param(lambda: ExtractedValue.unreadable("type_mismatch", "x"), "reason",
                 id="ExtractedValue-unreadable"),
    pytest.param(lambda: Evidence("form:invoice_value", "present", "0,01 €"), "rendered",
                 id="Evidence"),
    pytest.param(lambda: CheckOutcome("common.x", "X matches", CheckStatus.MANUAL_CHECK,
                                      Evidence("form:a", "absent", None, "form field not declared"),
                                      Evidence("-", "present"), "left value missing"),
                 "status", id="CheckOutcome"),
    pytest.param(lambda: DeclaredValue("invoice_value", "money", "0,01", Money(1)), "warning",
                 id="DeclaredValue"),
    pytest.param(lambda: CanonicalName("MARIA SILVA", "Maria Silva"), "canonical",
                 id="CanonicalName"),
    pytest.param(lambda: BackendResponse({"total_value": "0,01"}, 0.25, 40), "elapsed_ms",
                 id="BackendResponse"),
]


@pytest.mark.parametrize("build, field", VALUE_OBJECTS)
def test_value_objects_refuse_assignment_compare_by_field_and_pickle(build, field):
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, "changed")
    assert getattr(value, field) != "changed"
    assert build() == value and build() is not value
    assert value._replace(**{field: "changed"}) != value
    copy = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(value) and copy == value


def test_every_absent_tag_is_one_shared_value(tmp_path):
    ref = invoice_ref(tmp_path, {"total_value": "1.000,00 €", "buyer_name": "None"})
    extracted = extract(ref, schema_for(DocumentSlot.INVOICE, T1), MockBackend())
    absent = [v for v in extracted.fields.values() if v.state is ValueState.ABSENT]
    assert len(absent) == len(extracted.fields) - 1
    assert all(v is ExtractedValue.absent() for v in absent)
    assert ExtractedValue.absent() == ExtractedValue(ValueState.ABSENT)
