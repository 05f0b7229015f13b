"""Local HTTP stub of the extraction endpoint, backed by fixture sidecars.

Generated document files embed their corpus-relative path behind a
marker, so the stub can serve the exact sidecar a MockBackend would read
for the same file. Used by the test suite and handy for trying the
remote backend without a real service.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .backends import DOC_MARKER, BackendError, interpret_sidecar
from .extract import ExtractionSchema, TagSpec, ValueType
from .ingest import SIDECAR_SUFFIX, DocumentSlot


def embedded_relpath(content: bytes) -> str | None:
    """Recover the corpus-relative path a generated document carries."""
    if not content.startswith(DOC_MARKER):
        return None
    rest = content[len(DOC_MARKER):]
    end = rest.find(b"\n")
    if end == -1:
        end = len(rest)
    return rest[:end].decode("utf-8", errors="replace")


class _StubHTTPServer(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5; a burst of client connects
    # beyond it has SYNs dropped and waits out a 1 s retransmit each.
    request_queue_size = socket.SOMAXCONN


class FixtureStubServer:
    """Threaded HTTP server answering POST /extract from sidecar files."""

    def __init__(self, corpus_root: Path, host: str = "127.0.0.1", port: int = 0):
        self.corpus_root = Path(corpus_root)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server API)
                if self.path != "/extract":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                try:
                    request = json.loads(self.rfile.read(length))
                    response = outer._answer(request)
                except BackendError:
                    self._reply(500, {"error": "extraction failed"})
                    return
                except Exception as exc:  # noqa: BLE001 (stub reports anything as 400)
                    self._reply(400, {"error": str(exc)})
                    return
                self._reply(200, response)

            def _reply(self, status: int, body: dict):
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):  # quiet in tests
                pass

        self._server = _StubHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def _answer(self, request: dict) -> dict:
        content = base64.b64decode(request["content_b64"])
        relpath = embedded_relpath(content)
        sidecar = {}
        if relpath is not None:
            sidecar_path = self.corpus_root / (relpath + SIDECAR_SUFFIX)
            if sidecar_path.is_file():
                sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        schema = ExtractionSchema(
            slot=DocumentSlot.OTHER,
            tags=tuple(
                TagSpec(name=t["name"], value_type=ValueType(t["type"]),
                        variants=tuple(t.get("variants", ())))
                for t in request.get("schema", ())
            ),
        )
        response = interpret_sidecar(sidecar, schema)
        return {
            "fields": response.fields,
            "cost_eur": response.cost_eur,
            "elapsed_ms": response.elapsed_ms,
        }

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FixtureStubServer":
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "FixtureStubServer":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
