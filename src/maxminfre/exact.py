"""Exact decimal scalars.

All coefficients, bounds and costs are finite decimals.  They are stored as
``fractions.Fraction`` so that every comparison is exact; min/max, sums and
products of finite decimals are again finite decimals (denominators stay of
the form 2^a * 5^b), so results can always be rendered back as decimal
strings without loss.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(value) -> Fraction:
    """Convert a JSON-ish scalar (str, int, float, Fraction) to a Fraction.

    Strings and ints are exact.  Floats are read through their shortest
    decimal repr, which recovers the decimal literal they were written as.
    Values without a finite decimal form, such as "1/3", are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, float, str)):
        raise ValueError(f"not a numeric scalar: {value!r}")
    try:
        parsed = Fraction(repr(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a decimal scalar: {value!r}") from exc
    d = parsed.denominator
    if pow(10, d.bit_length(), d):  # d | 10^bit_length(d) iff d = 2^a * 5^b
        raise ValueError(f"{value!r} has no finite decimal form")
    return parsed


def _pow10_exponent(denominator: int) -> int:
    """Smallest k with denominator | 10^k; ValueError if none exists."""
    twos = fives = 0
    d = denominator
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"denominator {denominator} has no finite decimal form")
    return max(twos, fives)


def decimal_places(value: Fraction) -> int:
    """Number of decimal digits needed to write the value exactly."""
    return _pow10_exponent(value.denominator)


def decimal_str(value: Fraction) -> str:
    """Exact decimal string, no trailing zeros ('0.66', '-13.0727', '1')."""
    k = _pow10_exponent(value.denominator)
    scaled = value.numerator * 10**k // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    if k == 0:
        return sign + digits
    whole, frac = digits[:-k], digits[-k:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def display_round(value: Fraction, places: int = 2) -> str:
    """Fixed-point display string rounded half-even to `places` digits."""
    scaled = round(value * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return sign + digits[:-places] + "." + digits[-places:]


def vector_str(vec: Vec) -> list[str]:
    return [decimal_str(v) for v in vec]
