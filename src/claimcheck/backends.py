"""Extraction backends: a deterministic fixture mock and a remote HTTP client.

Both speak the same wire shape: a flat tag->string map plus cost/latency
metadata. Fixtures live in ``<docfile>.fields.json`` sidecars; a sidecar
may carry ``__meta__`` (cost_eur, elapsed_ms) and ``__faults__`` entries
for error-taxonomy testing.
"""

from __future__ import annotations

import base64
import email.utils
import http.client
import json
import random
import ssl
import threading
import time
import urllib.request
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from urllib.parse import SplitResult, unquote, urlsplit

from .extract import ExtractionSchema, NONE_SENTINEL
from .ingest import SIDECAR_SUFFIX, DocumentRef

# Generated document files start with this marker followed by their
# corpus-relative path, so a stub server can resolve the right sidecar
# from posted bytes alone.
DOC_MARKER = b"%CLAIMDOC%"


class BackendError(RuntimeError):
    """Extraction backend failed after retries."""


@dataclass(frozen=True)
class BackendResponse:
    fields: dict[str, str]
    cost_eur: float = 0.0
    elapsed_ms: int = 0


def _corrupt_digit(value: str) -> str:
    """Deterministically alter one digit (or append a marker) of a value."""
    for i, ch in enumerate(value):
        if ch.isdigit():
            return value[:i] + str((int(ch) + 1) % 10) + value[i + 1:]
    return value + "X"


def interpret_sidecar(sidecar: dict, schema: ExtractionSchema) -> BackendResponse:
    """Resolve a sidecar dict to a response, applying any fault entries.

    Fault modes: ``drop`` removes a tag from the response, ``corrupt``
    alters one digit of its value, ``fail`` aborts the whole call.
    """
    fields: dict[str, str] = {}
    for name in schema.tag_names():
        raw = sidecar.get(name)
        fields[name] = NONE_SENTINEL if raw is None else str(raw)
    for fault in sidecar.get("__faults__", []):
        mode = fault.get("mode")
        tag = fault.get("tag")
        if mode == "fail":
            raise BackendError("injected backend failure")
        if tag not in fields:
            continue
        if mode == "drop":
            del fields[tag]
        elif mode == "corrupt":
            fields[tag] = _corrupt_digit(fields[tag])
    meta = sidecar.get("__meta__", {})
    return BackendResponse(
        fields=fields,
        cost_eur=float(meta.get("cost_eur", 0.0)),
        elapsed_ms=int(meta.get("elapsed_ms", 0)),
    )


def load_sidecar(doc: DocumentRef) -> dict:
    """The fixture of ``doc``: ``<file>.fields.json`` beside a file, or
    ``<member>.fields.json`` in the archive that holds a member; {} when
    there is none."""
    try:
        return json.loads(doc.read_bytes(SIDECAR_SUFFIX).decode("utf-8"))
    except (FileNotFoundError, KeyError):
        return {}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise BackendError(f"fixture sidecar unreadable: {exc}") from exc


class MockBackend:
    """Answers from each document's fixture sidecar.

    ``store`` bypasses the filesystem: a mapping from document path (str)
    to sidecar dicts, used by in-memory corpus tests.
    """

    backend_id = "mock"

    def __init__(self, store: dict[str, dict] | None = None):
        self._store = store

    def close(self) -> None:
        """Nothing to release: the mock opens no connection."""

    def fetch(self, doc: DocumentRef, schema: ExtractionSchema) -> BackendResponse:
        if self._store is not None:
            sidecar = self._store.get(str(doc.path), {})
        else:
            sidecar = load_sidecar(doc)
        return interpret_sidecar(sidecar, schema)


@dataclass
class RemoteConfig:
    endpoint: str
    api_key: str | None = None
    timeout_s: float = 30.0
    retries: int = 3
    backoff_s: float = 0.5


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a ``Retry-After`` header asks to wait: delta-seconds or an
    HTTP-date (RFC 9110 §10.2.3); None when absent or unparseable."""
    if value is None:
        return None
    value = value.strip()
    if value.isdecimal():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def _host_port(url: SplitResult) -> str:
    return url.netloc.rpartition("@")[2]


def _proxy_for(endpoint: SplitResult) -> SplitResult | None:
    """The proxy ``HTTP_PROXY``/``HTTPS_PROXY`` name for the endpoint's
    scheme, or None when there is none or ``NO_PROXY`` bypasses its host."""
    proxy = urllib.request.getproxies().get(endpoint.scheme)
    if not proxy or urllib.request.proxy_bypass(_host_port(endpoint)):
        return None
    return urlsplit(proxy if "://" in proxy else "http://" + proxy)


def _proxy_auth_headers(proxy: SplitResult) -> dict[str, str]:
    if proxy.username is None:
        return {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


# A kept-alive connection the server closed while it sat idle fails on
# its next send or read with one of these (http.client's
# RemoteDisconnected is a ConnectionResetError).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


class RemoteBackend:
    """POSTs document bytes plus the schema to an extraction endpoint.

    Wire contract: request {doc_kind, schema: [{name, type, variants?}],
    content_b64}; response {fields: {tag: str}, cost_eur, elapsed_ms}
    with absent tags carrying the literal "None".

    Each document gets ``retries`` attempts, and at least one. HTTP 429,
    5xx and connection errors are retried: after a 429 the wait is its
    ``Retry-After`` capped at ``timeout_s``, otherwise a full-jitter
    exponential backoff. Any other status, redirects included, fails the
    document at once. ``timeout_s`` bounds each socket operation.

    Every thread calling ``fetch`` keeps one ``http.client`` connection
    and reuses it while the server keeps it alive. Proxies come from
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY``, read once here: plain
    HTTP goes through the proxy as an absolute-URI request, HTTPS through
    a CONNECT tunnel. Certificates are checked against the default trust
    store, which ``SSL_CERT_FILE`` overrides. ``close`` closes the
    connections of every thread.
    """

    backend_id = "remote"

    def __init__(self, config: RemoteConfig):
        self.config = config
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []  # one per thread
        self._connections_lock = threading.Lock()
        endpoint = urlsplit(config.endpoint)
        self._context = ssl.create_default_context() if endpoint.scheme == "https" else None
        self._address = (endpoint.hostname, endpoint.port)
        self._target = endpoint.path.rstrip("/") + "/extract"
        self._headers = {"Content-Type": "application/json"}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"
        self._tunnel: tuple | None = None
        proxy = _proxy_for(endpoint)
        if proxy is not None:
            if self._context is None:
                self._target = f"http://{_host_port(endpoint)}{self._target}"
                self._headers.update(_proxy_auth_headers(proxy))
            else:
                self._tunnel = (endpoint.hostname, endpoint.port, _proxy_auth_headers(proxy))
            self._address = (proxy.hostname, proxy.port or 80)

    def _session(self) -> http.client.HTTPConnection:
        """This thread's connection to the endpoint, or to its proxy."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            host, port = self._address
            if self._context is None:
                conn = http.client.HTTPConnection(host, port, timeout=self.config.timeout_s)
            else:
                conn = http.client.HTTPSConnection(host, port, timeout=self.config.timeout_s,
                                                   context=self._context)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            with self._connections_lock:
                self._connections.append(conn)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the connection of every thread that fetched. A later fetch
        on a closed connection opens it again, and ``close`` closes it too."""
        with self._connections_lock:
            for conn in self._connections:
                conn.close()

    def _post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST once on this thread's connection: (status, Retry-After, body).

        A reused connection that turns out closed is reopened once, not
        counted as an attempt; after any failure the connection is closed.
        """
        conn = self._session()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.status != 200:
            conn.close()
        return response.status, response.getheader("Retry-After"), data

    def fetch(self, doc: DocumentRef, schema: ExtractionSchema) -> BackendResponse:
        payload = {
            "doc_kind": doc.kind.value,
            "schema": [
                {"name": t.name, "type": t.value_type.value,
                 **({"variants": list(t.variants)} if t.variants else {})}
                for t in schema.tags
            ],
            "content_b64": base64.b64encode(doc.read_bytes()).decode("ascii"),
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")

        last_error: Exception | None = None
        attempts = max(1, self.config.retries)
        wait_s = 0.0
        for attempt in range(attempts):
            if attempt:
                time.sleep(wait_s)
            # full jitter: uniform below an exponentially growing ceiling
            wait_s = random.uniform(0.0, min(self.config.timeout_s,
                                             self.config.backoff_s * 2 ** attempt))
            try:
                status, retry_after, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status == 429:
                last_error = RuntimeError("throttled (429)")
                asked = _retry_after_s(retry_after)
                if asked is not None:
                    wait_s = min(asked, self.config.timeout_s)
                continue
            if status >= 500:
                last_error = RuntimeError(f"server error {status}")
                continue
            if status != 200:
                raise BackendError(f"extraction endpoint returned {status}")
            try:
                reply = json.loads(data)
                fields = {str(k): str(v) for k, v in reply["fields"].items()}
                return BackendResponse(
                    fields=fields,
                    cost_eur=float(reply.get("cost_eur", 0.0)),
                    elapsed_ms=int(reply.get("elapsed_ms", 0)),
                )
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise BackendError(f"malformed extraction response: {exc}") from exc
        raise BackendError(f"extraction failed after {attempts} attempts: {last_error}")
