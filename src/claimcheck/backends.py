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
from dataclasses import dataclass

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


def __getattr__(name: str):
    # PEP 562: load the HTTP client only when a caller asks for it
    if name in ("RemoteBackend", "RemoteConfig"):
        from . import remote
        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
