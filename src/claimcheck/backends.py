"""Extraction backends: the wire contract and the deterministic fixture mock.

Every backend answers with the same wire shape: a flat tag->string map
plus cost/latency metadata. Fixtures live in ``<docfile>.fields.json``
sidecars; a sidecar may carry ``__meta__`` (cost_eur, elapsed_ms) and
``__faults__`` entries for error-taxonomy testing.

The remote HTTP client, ``RemoteBackend`` with its ``RemoteConfig``, lives
in ``claimcheck.remote``, which only a remote run imports. Both names are
still looked up here: the module loads on first use of either.
"""

from __future__ import annotations

import json
import zipfile
from typing import NamedTuple

from .extract import ExtractionSchema, NONE_SENTINEL
from .ingest import SIDECAR_SUFFIX, DocumentRef

# Generated document files start with this marker followed by their
# corpus-relative path, so a stub server can resolve the right sidecar
# from posted bytes alone.
DOC_MARKER = b"%CLAIMDOC%"


class BackendError(RuntimeError):
    """Extraction backend failed after retries."""


class BackendResponse(NamedTuple):
    fields: dict[str, str]
    cost_eur: float = 0.0
    elapsed_ms: int = 0


# The range of a document's cost and time: above it, a value is a reading
# fault, not a charge or a wait.
MAX_COST_EUR = 1000.0
MAX_ELAPSED_MS = 86_400_000  # a day


def response_meta(cost_eur: object, elapsed_ms: object) -> tuple[float, int]:
    """``(float(cost_eur), int(elapsed_ms))``, each finite and in its range:
    cost in [0, MAX_COST_EUR] euros, time in [0, MAX_ELAPSED_MS] ms. Raises
    BackendError for anything else, so that document's tags are unreadable
    and its application goes on."""
    try:
        cost, elapsed = float(cost_eur), int(elapsed_ms)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"malformed cost or time: {exc}") from None
    if not 0.0 <= cost <= MAX_COST_EUR:  # NaN is in no range
        raise BackendError(f"cost_eur {cost!r} is not in [0, {MAX_COST_EUR:g}]")
    if not 0 <= elapsed <= MAX_ELAPSED_MS:
        raise BackendError(f"elapsed_ms {elapsed!r} is not in [0, {MAX_ELAPSED_MS}]")
    return cost, elapsed


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
    fields = {name: NONE_SENTINEL if (raw := sidecar.get(name)) is None else str(raw)
              for name in schema.tag_names()}
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
    if not isinstance(meta, dict):
        raise BackendError(f"sidecar __meta__ is a {type(meta).__name__}, not an object")
    return BackendResponse(fields, *response_meta(meta.get("cost_eur", 0.0),
                                                  meta.get("elapsed_ms", 0)))


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


def __getattr__(name: str):
    # PEP 562: load the HTTP client only when a caller asks for it
    if name in ("RemoteBackend", "RemoteConfig"):
        from . import remote
        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
