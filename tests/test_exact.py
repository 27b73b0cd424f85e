import errno
import os
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from maxminfre.exact import (
    _file_message,
    decimal_places,
    decimal_str,
    display_round,
    parse_scalar,
    quoted,
)

from . import reference


def test_parse_decimal_strings_exactly():
    assert parse_scalar("0.66") == Fraction(66, 100)
    assert parse_scalar("-8.36") == Fraction(-836, 100)
    assert parse_scalar("1") == 1
    assert parse_scalar(Fraction(1, 4)) == Fraction(1, 4)


def test_parse_float_uses_shortest_repr():
    assert parse_scalar(0.66) == Fraction(66, 100)
    assert parse_scalar(0.1) == Fraction(1, 10)


@pytest.mark.parametrize(
    "bad",
    ["abc", None, [1], True, "1/0", "1/3", Fraction(2, 3), "1e5000", "1e-1000000", "1E+1_001"],
)
def test_parse_rejects_non_scalars(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize(
    "value, accepted",
    [
        ("9" * 1001 + "." + "9" * 1000, True),
        ("-" + "0" * 1002 + "1", True),
        (10**1001 - 1, True),
        (Fraction(1, 2**1000), True),
        ("0.5e-1000", False),
        ("0." + "9" * 1001, False),
        ("1" + "0" * 1001, False),
        (10**1001, False),
        (Fraction(1, 2**1001), False),
        (Fraction(1, 2**3300), False),
        (Fraction(1, 3**3000), False),
    ],
    ids=[
        "1001-integer-digits-1000-places",
        "1002-digits-with-leading-zeros",
        "int-1001-digits",
        "2^-1000",
        "exponent-makes-1001-places",
        "1001-places",
        "1002-integer-digits",
        "int-10^1001",
        "2^-1001",
        "2^-3300",
        "3^-3000",
    ],
)
def test_size_rule_holds_for_every_input_kind(value, accepted):
    """At most 1000 decimal places and a magnitude below 10**1001, whether
    the value is written out, an int or a Fraction."""
    if accepted:
        assert parse_scalar(value) == Fraction(value)
    else:
        with pytest.raises(ValueError, match="more than 1000 decimal places or more than 1001"):
            parse_scalar(value)


def _at_the_limits(denominator: int):
    """Values p / denominator of magnitude below 10**1001, the largest included."""
    bound = 10**1001 * denominator - 1
    return st.one_of(st.integers(-bound, bound), st.sampled_from([bound, -bound])).map(
        lambda p: Fraction(p, denominator)
    )


# 1000 decimal places with up to 1001 integer digits, or a power-of-two
# denominator up to 2**1000; each given as a Fraction or as its decimal string
_limit_scalars = st.one_of(
    _at_the_limits(10**1000),
    st.integers(0, 1000).flatmap(lambda a: _at_the_limits(2**a)),
).flatmap(lambda v: st.sampled_from([v, decimal_str(v)]))


@given(st.lists(st.tuples(_limit_scalars, _limit_scalars), min_size=1, max_size=64))
def test_sums_of_products_of_accepted_scalars_render(pairs):
    """Whatever the size rule accepts, an objective's sum of products of such
    scalars can be written out as a decimal."""
    total = sum((parse_scalar(a) * parse_scalar(b) for a, b in pairs), Fraction(0))
    assert Fraction(decimal_str(total)) == total


def test_file_message_keeps_the_end_of_a_long_path():
    exc = OSError(errno.ENOENT, os.strerror(errno.ENOENT))
    reason = os.strerror(errno.ENOENT)
    whole = "dir/" + "x" * 92 + ".col"  # 100 characters: echoed whole
    assert _file_message("read graph file", whole, exc) == (
        f"cannot read graph file '{whole}': {reason}"
    )
    assert _file_message("read graph file", "y" + whole, exc) == (
        f"cannot read graph file '...{whole[-97:]}': {reason}"
    )
    # a character is written as its ASCII escape before the cut, so no path,
    # however long or however written, takes the message to 200 bytes
    for path in ("x" * 100_000, "\u00e9" * 5000, "\udcff" * 5000, "\n" * 5000):
        message = _file_message("write output file", path, exc)
        assert message.isascii() and len(message) < 200


def test_quoted_cuts_any_long_repr():
    assert quoted("x" * 40) == repr("x" * 40)
    assert quoted("x" * 41) == repr("x" * 37 + "...")
    assert quoted(10**39) == repr(10**39)  # 40 digits
    assert quoted(10**40) == "1" + "0" * 36 + "..."
    assert quoted(["1"] * 50_000) == repr(["1"] * 50_000)[:37] + "..."
    assert quoted(None) == "None"


def test_quoted_names_the_type_of_a_value_too_deep_for_repr():
    deep = []
    for _ in range(5000):  # built in a loop: a literal this deep does not compile
        deep = [deep]
    assert quoted(deep) == "list"
    with pytest.raises(ValueError, match="^not a numeric scalar: list$"):
        parse_scalar(deep)


def test_decimal_str_round_trips():
    for text in ("0.66", "-13.0727", "0", "1", "0.04", "-0.5"):
        assert decimal_str(Fraction(text)) == text


def test_decimal_str_strips_trailing_zeros():
    assert decimal_str(Fraction("0.40")) == "0.4"
    assert decimal_str(Fraction("2.00")) == "2"


def test_decimal_str_rejects_non_decimal_fraction():
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 3))


def test_display_round_half_even():
    assert display_round(Fraction("-13.0727")) == "-13.07"
    assert display_round(Fraction("0.125")) == "0.12"
    assert display_round(Fraction("0.135")) == "0.14"
    assert display_round(Fraction("2"), places=0) == "2"


def test_decimal_places():
    assert decimal_places(Fraction("0.66")) == 2
    assert decimal_places(Fraction(3)) == 0
    assert decimal_places(Fraction(1, 8)) == 3  # 0.125


@given(st.integers(-10**6, 10**6), st.integers(0, 6))
def test_decimal_str_parse_round_trip(numerator, places):
    value = Fraction(numerator, 10**places)
    assert parse_scalar(decimal_str(value)) == value


# Plain decimals: signs, leading zeros, short and long fractional parts.
_plain_decimals = st.builds(
    lambda sign, zeros, whole, places: sign + "0" * zeros + str(whole) + places,
    st.sampled_from(["", "-"]),
    st.integers(0, 3),
    st.integers(0, 10**30),
    st.just("") | st.text("0123456789", min_size=1, max_size=40).map(lambda d: "." + d),
)
# Every other spelling, and plain decimals with more than 1001 integer digits
# or 1000 decimal places.
_general_forms = st.one_of(
    st.sampled_from(
        [
            "1e5", "5e-1", "1E+1_001", "1e5000", "+1", "+0.5", " 1", "1 ", "1\n", "1_0",
            ".5", "1.", "-.5", "1/3", "2/4", "1/0", "\u0661", "\u0660.\u0665", "nan",
            "inf", "", "-", "0x10", "0." + "1" * 5000, "1" * 5000, "-" + "9" * 4301,
            "9" * 3000 + "." + "9" * 3000, "9" * 1001, "9" * 1002, "0." + "1" * 1000,
            "0." + "1" * 1001, "0" * 1002 + "1", "-" + "9" * 1001 + "." + "9" * 1000,
            "1/" + "3" * 1100, "1/" + "2" * 900,
        ]
    ),
    st.from_regex(r"[-+]?[0-9]*\.?[0-9]*([eE][-+]?[0-9]{1,4})?", fullmatch=True),
    st.text(max_size=8),
    st.integers(),
    st.floats(),
    st.fractions(),
    st.sampled_from([True, None, [1]]),
)


@given(st.one_of(_plain_decimals, _general_forms))
def test_parse_scalar_matches_reference(value):
    """The same Fraction, or the same ValueError message, as the reference,
    which checks the size rule on Fractions."""
    try:
        expected = reference.parse_scalar(value)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_scalar(value)
        assert str(got.value) == str(exc)
    else:
        parsed = parse_scalar(value)
        assert parsed == expected and type(parsed) is Fraction
