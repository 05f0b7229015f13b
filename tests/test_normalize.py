import datetime as dt
import math
import unicodedata
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_eval import _similarity

from claimcheck.normalize import (
    Money,
    ParseError,
    PowerValue,
    TaxId,
    format_money,
    fuzzy_match,
    normalize_name,
    parse_date,
    parse_declared,
    parse_money,
    parse_number,
    parse_power,
    validate_tax_id,
)
from claimcheck.rules import render_value

# Characters a parser is likely to trip on: digits that str.isdigit or int
# accept but are not ASCII, separators, signs, units and currency marks.
TRICKY = "0123456789.,-+_ \u00a0/€EURkKwWe²٣٢٠١\uff11\u0663\u06f5\u0966"
PARSERS = (parse_money, parse_date, parse_power, parse_number, validate_tax_id)


def decimal_oracle(text: str) -> int:
    """Independent money reading: strip currency and grouping, treat the
    last separator as the decimal mark, convert via Decimal."""
    s = text.replace("€", "").replace("EUR", "").replace(" ", "").strip()
    seps = [i for i, c in enumerate(s) if c in ".,"]
    if not seps:
        return int(Decimal(s) * 100)
    last = seps[-1]
    frac = s[last + 1:]
    whole = "".join(c for c in s[:last] if c.isdigit())
    if len(frac) == 3 and len(seps) == 1:
        return int(whole + frac) * 100  # lone thousands group
    return int(Decimal(f"{whole}.{frac}") * 100)


class TestParseMoney:
    def test_portuguese_format(self):
        assert parse_money("1.234,56 €") == Money(123456)

    def test_zero(self):
        assert parse_money("0,00") == Money(0)

    def test_plain_comma_decimal(self):
        assert parse_money("1234,56") == Money(123456)

    def test_space_grouped_dot_decimal(self):
        assert parse_money("1 234.56 EUR") == Money(123456)

    def test_lone_thousands_group(self):
        assert parse_money("1.234") == Money(123400)

    def test_repeated_grouping(self):
        assert parse_money("1.234.567") == Money(123456700)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            parse_money("abc")

    def test_negative_rejected(self):
        with pytest.raises(ParseError):
            parse_money("-12,00")

    @pytest.mark.parametrize("text", [
        "1.234,56 €", "150,00", "6.543,21", "12,5", "999", "1 234,00", "2.000,00 EUR",
    ])
    def test_agrees_with_decimal_oracle(self, text):
        assert parse_money(text).amount_cents == decimal_oracle(text)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200)
    def test_round_trip(self, cents):
        assert parse_money(format_money(Money(cents))).amount_cents == cents


class TestParseDate:
    def test_sentinel_date(self):
        assert parse_date("01/05/2022") == dt.date(2022, 5, 1)

    def test_iso(self):
        assert parse_date("2023-12-31") == dt.date(2023, 12, 31)

    def test_dashed(self):
        assert parse_date("31-12-2023") == dt.date(2023, 12, 31)

    def test_invalid_calendar_date(self):
        with pytest.raises(ParseError):
            parse_date("31/02/2023")

    def test_two_digit_year_rejected(self):
        with pytest.raises(ParseError):
            parse_date("01/05/22")

    def test_total_order(self):
        assert parse_date("01/05/2022") < parse_date("2022-05-02")

    @given(st.dates())
    @settings(max_examples=300)
    def test_a_rendered_date_reads_back(self, date):
        assert parse_date(render_value(date)) == date


class TestParsePower:
    def test_kw_with_comma(self):
        assert parse_power("3,68 kW").watts == 3680

    def test_watts(self):
        assert parse_power("3680 W").watts == 3680

    def test_zero(self):
        power = parse_power("0 W")
        assert power.watts == 0 and not power.unit_assumed

    def test_no_space_kw(self):
        assert parse_power("3,68kW").watts == 3680

    def test_missing_unit_not_guessed(self):
        power = parse_power("3.68")
        assert power.watts == 3
        assert power.unit_assumed

    def test_negative_rejected(self):
        with pytest.raises(ParseError):
            parse_power("-5 W")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_power("soon")

    # a rendered power of up to 38 digits stays within the 40-character cap
    @given(st.integers(min_value=0, max_value=10**38 - 1))
    @settings(max_examples=300)
    def test_a_rendered_power_reads_back_in_watts(self, watts):
        assert parse_power(render_value(PowerValue(watts))) == PowerValue(watts)


class TestTaxId:
    def test_valid_example(self):
        tax = validate_tax_id("123456789")
        assert tax.valid and tax.digits == "123456789"

    def test_punctuation_stripped(self):
        assert validate_tax_id("123 456 789").valid

    def test_wrong_length(self):
        tax = validate_tax_id("12345678")
        assert not tax.valid and tax.reason == "wrong_length"

    def test_bad_check_digit(self):
        assert not validate_tax_id("123456780").valid

    def test_brute_force_oracle(self):
        # enumerate every check digit over a spread of 8-digit prefixes
        checked = 0
        for prefix_seed in range(0, 10**8, 99991):
            prefix = f"{prefix_seed:08d}"
            weighted = sum(int(d) * w for d, w in zip(prefix, range(9, 1, -1)))
            expected_check = 11 - (weighted % 11)
            if expected_check >= 10:
                expected_check = 0
            for digit in range(10):
                candidate = prefix + str(digit)
                assert validate_tax_id(candidate).valid == (digit == expected_check)
                checked += 1
        assert checked == 10010


class TestNames:
    def test_diacritics_and_whitespace(self):
        assert normalize_name("João  da Silva").canonical == "JOAO DA SILVA"

    def test_empty(self):
        assert normalize_name("").canonical == ""

    def test_punctuation_dropped(self):
        assert normalize_name("Anne-Marie  O'Neil").canonical == "ANNE MARIE O NEIL"

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_name(text).canonical
        assert normalize_name(once).canonical == once

    @staticmethod
    def reference_canonical(text: str) -> str:
        """The canonical form by its definition, character by character, as
        normalize_name computed it before its ASCII path."""
        decomposed = unicodedata.normalize("NFKD", text)
        stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
        cleaned = "".join(c if c.isalnum() else " " for c in stripped)
        return " ".join(cleaned.upper().split())

    @given(st.one_of(
        st.text(max_size=40),
        # mostly ASCII: letters, digits, punctuation, controls, and a few
        # characters whose NFKD form is ASCII or holds a combining mark
        st.text(alphabet=st.one_of(st.characters(max_codepoint=127),
                                   st.sampled_from("ãçéÉøßﬁ²Å\u0301\u00a0\u2126")),
                max_size=40)))
    @settings(max_examples=500)
    def test_equals_the_reference(self, text):
        assert normalize_name(text).canonical == self.reference_canonical(text)


def _just_above(x: float) -> float:
    return math.nextafter(x, math.inf)


class TestFuzzyScore:
    """``fuzzy_match(a, b, t)`` answers ``similarity(a, b) >= t``."""

    def test_identical(self):
        assert fuzzy_match("ABC", "ABC", 1.0)
        assert not fuzzy_match("ABC", "ABC", _just_above(1.0))
        assert fuzzy_match("", "", 1.0)

    def test_one_edit_of_three(self):
        assert fuzzy_match("ABC", "ABD", 1 - 1 / 3)
        assert not fuzzy_match("ABC", "ABD", _just_above(1 - 1 / 3))

    def test_against_empty(self):
        assert fuzzy_match("X", "", 0.0)
        assert not fuzzy_match("X", "", _just_above(0.0))

    def test_levenshtein_known(self):
        # kitten -> sitting takes 3 edits over 7 characters
        assert fuzzy_match("KITTEN", "SITTING", 1.0 - 3 / 7)
        assert not fuzzy_match("KITTEN", "SITTING", _just_above(1.0 - 3 / 7))

    @given(st.text(alphabet="ABCDE", max_size=12), st.text(alphabet="ABCDE", max_size=12),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b, threshold):
        assert fuzzy_match(a, b, threshold) == fuzzy_match(b, a, threshold)
        assert fuzzy_match(a, b, 0.0)
        assert fuzzy_match(a, a, 1.0)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_oracle_on_every_boundary(self, data):
        # the oracle's own edit distance, at thresholds exactly on 1 - k/L
        # and one float step either side of it
        alphabet = data.draw(st.sampled_from(("AB", "ABC ", "ABCDEFGH")))
        a = data.draw(st.text(alphabet=alphabet, max_size=40))
        b = data.draw(st.one_of(
            st.text(alphabet=alphabet, max_size=40),
            st.builds(lambda s, i, c: s[:i] + c + s[i + 1:], st.just(a),
                      st.integers(0, 40), st.sampled_from(alphabet))))
        longest = max(len(a), len(b), 1)
        k = data.draw(st.integers(0, longest))
        on = 1.0 - k / longest
        threshold = data.draw(st.sampled_from(
            (on, math.nextafter(on, -math.inf), _just_above(on), 0.0, 1.0)))
        assert fuzzy_match(a, b, threshold) == (_similarity(a, b) >= threshold), \
            (a, b, threshold)


class TestParseNumber:
    def test_int(self):
        assert parse_number("42") == 42

    def test_comma_decimal(self):
        assert parse_number("3,5") == 3.5

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_number("much")


class TestParseDeclared:
    def test_money_field(self):
        declared = parse_declared("invoice_value", "money", "1.234,56")
        assert declared.value == Money(123456) and declared.warning is None

    def test_malformed_kept_as_text_with_warning(self):
        declared = parse_declared("invoice_value", "money", "umas centenas")
        assert declared.warning is not None
        assert declared.raw == "umas centenas"

    def test_unknown_type_warns(self):
        declared = parse_declared("foo", "mystery", "x")
        assert declared.warning is not None

    def test_invalid_tax_id_warns(self):
        declared = parse_declared("applicant_tax_id", "tax_id", "123456780")
        assert declared.warning is not None


class TestEveryParserIsTotal:
    @pytest.mark.parametrize("parse", PARSERS, ids=lambda parse: parse.__name__)
    @given(text=st.one_of(st.text(max_size=30), st.text(alphabet=TRICKY, max_size=30),
                          st.text(alphabet="19.,", max_size=8)))
    @settings(max_examples=400)
    def test_any_text_is_a_value_or_a_parse_error(self, parse, text):
        try:
            value = parse(text)
        except ParseError:
            return
        assert isinstance(value, {parse_money: Money, parse_date: dt.date,
                                  parse_power: PowerValue, parse_number: (int, float),
                                  validate_tax_id: TaxId}[parse])

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda parse: parse.__name__)
    @given(data=st.data())
    @settings(max_examples=200)
    def test_a_digit_that_is_not_ascii_is_no_digit(self, parse, data):
        valid = {parse_money: "1.234,56 €", parse_date: "01/05/2022", parse_power: "3,68 kW",
                 parse_number: "176", validate_tax_id: "413170071"}[parse]
        digit = data.draw(st.characters(categories=["Nd"]).filter(lambda c: not c.isascii()))
        at = data.draw(st.sampled_from([i for i, c in enumerate(valid) if c.isdigit()]))
        text = valid[:at] + digit + valid[at + 1:]
        if parse is validate_tax_id:
            assert parse(text) == TaxId(text, False, "non_numeric")
        else:
            with pytest.raises(ParseError):
                parse(text)

    @pytest.mark.parametrize("text", ["..", ",,", "1..", ".,", "1.2.3", "1.234.56", ",234.5",
                                      ".123.456", "1,2,345", "1.23,45", "1,234.5678"])
    def test_money_groups_only_by_threes(self, text):
        with pytest.raises(ParseError) as raised:
            parse_money(text)
        assert raised.value.reason == "ambiguous"

    @pytest.mark.parametrize("text", ["1_000", "1_000,5", "1e3", "nan", "inf", "--1", "1.2.3"])
    def test_a_number_is_ascii_digits_and_one_decimal_mark(self, text):
        with pytest.raises(ParseError):
            parse_number(text)

    @pytest.mark.parametrize("parse", [parse_money, parse_power, parse_number])
    def test_a_number_of_thousands_of_digits_is_too_long(self, parse):
        with pytest.raises(ParseError) as raised:
            parse("9" * 5000)
        assert raised.value.reason == "too_long"
