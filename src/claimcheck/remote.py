"""The remote extraction backend: an HTTP client for an extraction service.

Only ``verify --backend remote`` loads this module, so only that run pays
for ``http.client``, ``ssl``, ``urllib.request`` and ``email``. It speaks
the wire contract of ``claimcheck.backends`` and raises its
``BackendError``.
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
from dataclasses import dataclass
from datetime import datetime, timezone
from urllib.parse import SplitResult, unquote, urlsplit

from .backends import BackendError, BackendResponse, response_meta
from .extract import ExtractionSchema
from .ingest import DocumentRef


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
                return BackendResponse(fields, *response_meta(reply.get("cost_eur", 0.0),
                                                              reply.get("elapsed_ms", 0)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise BackendError(f"malformed extraction response: {exc}") from exc
        raise BackendError(f"extraction failed after {attempts} attempts: {last_error}")
