"""Canonicalization of raw strings into comparable typed values.

Every parser here is total: any input yields either a typed value or a
ParseError carrying a machine-readable reason code. Nothing is silently
coerced to a default, because a wrong default would surface downstream
as a bogus auto-verification.
"""

from __future__ import annotations

import datetime as dt
import operator
import re
import unicodedata
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple


class ParseError(ValueError):
    """Raised when a raw string cannot be converted to the target type."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Money:
    """An exact amount in integer cents; arithmetic never touches floats."""

    amount_cents: int
    currency: str = "EUR"


@dataclass(frozen=True)
class PowerValue:
    """Electrical power canonicalized to whole watts.

    ``unit_assumed`` marks values that arrived without a unit. They are
    kept verbatim (no magnitude guessing) and the rule engine downgrades
    any comparison involving them to a manual check.
    """

    watts: int
    unit_assumed: bool = False


@dataclass(frozen=True)
class TaxId:
    """A 9-digit tax identifier with its mod-11 checksum verdict."""

    digits: str
    valid: bool
    reason: str | None = None


class CanonicalName(NamedTuple):
    canonical: str
    original: str


_CURRENCY_RE = re.compile(r"(?:€|\bEUR\b|\bEUROS?\b)", re.IGNORECASE)
_MONEY_CHARS_RE = re.compile(r"^[0-9.,]+$")


def parse_money(text: str, currency: str = "EUR") -> Money:
    """Parse European-format amounts ("1.234,56 €", "1 234.56 EUR", "1234,56").

    Disambiguation rule: when both separators appear the last one is the
    decimal mark; a lone separator is decimal when followed by 1-2 digits
    and a thousands group when followed by exactly 3.
    """
    s = _CURRENCY_RE.sub("", text).strip()
    if s.startswith("-"):
        raise ParseError("negative", f"negative amount not allowed: {text!r}")
    s = s.replace(" ", "").replace(" ", "")
    if not s or not _MONEY_CHARS_RE.match(s):
        raise ParseError("non_numeric", f"not a monetary amount: {text!r}")

    has_dot = "." in s
    has_comma = "," in s
    if not has_dot and not has_comma:
        return Money(int(s) * 100, currency)

    if has_dot and has_comma:
        dec = "." if s.rindex(".") > s.rindex(",") else ","
        grp = "," if dec == "." else "."
        whole_frac = s.replace(grp, "")
        if whole_frac.count(dec) != 1:
            raise ParseError("ambiguous", f"ambiguous separators: {text!r}")
        whole, frac = whole_frac.split(dec)
    else:
        sep = "." if has_dot else ","
        if s.count(sep) > 1:
            # repeated separator can only be grouping: "1.234.567"
            return Money(int(s.replace(sep, "")) * 100, currency)
        whole, frac = s.split(sep)
        if len(frac) == 3:
            return Money(int(whole + frac) * 100, currency)
        if len(frac) not in (1, 2):
            raise ParseError("ambiguous", f"ambiguous separator: {text!r}")
    if not whole:
        whole = "0"
    if len(frac) not in (1, 2) or not whole.isdigit() or not frac.isdigit():
        raise ParseError("ambiguous", f"ambiguous amount: {text!r}")
    cents = int(whole) * 100 + int(frac) * (10 if len(frac) == 1 else 1)
    return Money(cents, currency)


def format_money(money: Money) -> str:
    """Render cents back to the Portuguese convention ("1.234,56 €")."""
    whole, cents = divmod(money.amount_cents, 100)
    grouped = f"{whole:,}".replace(",", ".")
    suffix = "€" if money.currency == "EUR" else money.currency
    return f"{grouped},{cents:02d} {suffix}"


_DATE_PATTERNS = (
    re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$"),
    re.compile(r"^(\d{1,2})-(\d{1,2})-(\d{4})$"),
)
_DATE_ISO = re.compile(r"^(\d{4})-(\d{1,2})-(\d{1,2})$")


def parse_date(text: str) -> dt.date:
    """Parse dd/mm/yyyy, dd-mm-yyyy or yyyy-mm-dd. Two-digit years rejected."""
    s = text.strip()
    m = _DATE_ISO.match(s)
    if m:
        year, month, day = (int(g) for g in m.groups())
    else:
        for pat in _DATE_PATTERNS:
            m = pat.match(s)
            if m:
                day, month, year = (int(g) for g in m.groups())
                break
        else:
            raise ParseError("bad_format", f"unrecognized date format: {text!r}")
    try:
        return dt.date(year, month, day)
    except ValueError:
        raise ParseError("invalid_date", f"not a calendar date: {text!r}") from None


_POWER_RE = re.compile(r"^([0-9]+(?:[.,][0-9]+)?)\s*(kw|w)?$", re.IGNORECASE)


def parse_power(text: str) -> PowerValue:
    """Parse "3.68 kW", "3680 W", "3,68kW" into whole watts.

    A missing unit is never "fixed" by magnitude guessing: the number is
    taken as watts and flagged unit_assumed.
    """
    m = _POWER_RE.match(text.strip())
    if not m:
        raise ParseError("non_numeric", f"not a power rating: {text!r}")
    num, unit = m.groups()
    value = Decimal(num.replace(",", "."))
    if unit is None:
        return PowerValue(int(value), unit_assumed=True)
    if unit.lower() == "kw":
        value *= 1000
    return PowerValue(int(value))


_TAX_STRIP_RE = re.compile(r"[\s.\-/]+")
_TAX_WEIGHTS = (9, 8, 7, 6, 5, 4, 3, 2)  # of the first eight digits


def validate_tax_id(text: str) -> TaxId:
    """Validate a 9-digit tax identifier (mod-11 check digit).

    Check digit = 11 - (sum of the first eight digits weighted 9..2, mod
    11); results of 10 and 11 map to 0. Always returns a TaxId; failures
    are recorded in ``valid``/``reason``.
    """
    digits = _TAX_STRIP_RE.sub("", text.strip())
    if not digits.isdigit():
        return TaxId(digits, False, "non_numeric")
    if len(digits) != 9:
        return TaxId(digits, False, "wrong_length")
    total = sum(map(operator.mul, map(int, digits[:8]), _TAX_WEIGHTS))
    check = 11 - (total % 11)
    if check >= 10:
        check = 0
    if check != int(digits[8]):
        return TaxId(digits, False, "bad_check_digit")
    return TaxId(digits, True)


def parse_number(text: str) -> int | float:
    """Parse a plain number; comma accepted as decimal mark."""
    s = text.strip().replace(",", ".")
    if not s:
        raise ParseError("non_numeric", "empty number")
    try:
        if "." in s:
            return float(s)
        return int(s)
    except ValueError:
        raise ParseError("non_numeric", f"not a number: {text!r}") from None


# The parser of each value type a declared field and an extracted tag share.
# Each raises ParseError, except validate_tax_id: its TaxId says if it is valid.
VALUE_PARSERS = {
    "text": str.strip,
    "money": parse_money,
    "date": parse_date,
    "number": parse_number,
    "tax_id": validate_tax_id,
}


# every ASCII character that is not alphanumeric, to a space
_ASCII_NON_ALNUM = {code: " " for code in range(128) if not chr(code).isalnum()}


def normalize_name(text: str) -> CanonicalName:
    """Uppercase, strip diacritics, drop punctuation, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", text)
    if decomposed.isascii():  # no combining mark, and one table says what is alphanumeric
        cleaned = decomposed.translate(_ASCII_NON_ALNUM)
    else:
        stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
        cleaned = "".join(c if c.isalnum() else " " for c in stripped)
    return CanonicalName(" ".join(cleaned.upper().split()), text)


def fuzzy_match(a: str, b: str, threshold: float) -> bool:
    """Whether the similarity ``1 - levenshtein(a, b) / max(len(a), len(b))``
    (1.0 for equal strings) is at least ``threshold``; expects canonical input.

    The threshold becomes an edit budget k, the largest k for which
    ``1.0 - k / longest >= threshold`` holds in floating point, so every
    boundary case answers as that expression does. Only the diagonal band
    of width k is filled, and the fill stops at the first row whose
    cells all exceed k (Ukkonen, "Algorithms for approximate string
    matching", Information and Control 64, 1985).
    """
    if a == b:
        return 1.0 >= threshold
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    k = m  # 1.0 - k / m never rises with k, so the first k that passes is the largest
    while k >= 0 and not 1.0 - k / m >= threshold:
        k -= 1
    if m - n > k:
        return False
    big = k + 1  # stands for every distance above the budget
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        ca = a[i - 1]
        lo, hi = max(1, i - k), min(m, i + k)
        cur = [big] * (m + 1)
        cur[0] = row_min = i
        left = cur[lo - 1]
        for j in range(lo, hi + 1):
            cell = prev[j - 1] + (ca != b[j - 1])
            if prev[j] < cell:
                cell = prev[j] + 1
            if left < cell:
                cell = left + 1
            cur[j] = left = cell
            if cell < row_min:
                row_min = cell
        if row_min > k:
            return False
        prev = cur
    return prev[m] <= k


class DeclaredValue(NamedTuple):
    """One applicant-declared form field.

    Malformed typed values keep their raw text and carry ``warning`` so
    the rule engine can flag them instead of losing them.
    """

    field_id: str
    declared_type: str
    raw: str
    value: object = None
    warning: str | None = None


def parse_declared(field_id: str, declared_type: str, raw: str) -> DeclaredValue:
    """Build a DeclaredValue, downgrading parse failures to warnings."""
    parse = VALUE_PARSERS.get(declared_type)
    if parse is None:
        return DeclaredValue(field_id, declared_type, raw, raw.strip(),
                             f"unknown declared type {declared_type!r}")
    try:
        value = parse(raw)
    except ParseError as exc:
        return DeclaredValue(field_id, declared_type, raw, raw.strip(),
                             f"unparseable {declared_type}: {exc.reason}")
    if isinstance(value, TaxId) and not value.valid:
        return DeclaredValue(field_id, declared_type, raw, value,
                             f"tax id failed validation ({value.reason})")
    return DeclaredValue(field_id, declared_type, raw, value)


@dataclass
class FormData:
    """Applicant-declared fields keyed by field id."""

    declared: dict[str, DeclaredValue] = field(default_factory=dict)

    def get(self, field_id: str) -> DeclaredValue | None:
        return self.declared.get(field_id)
