"""Exact decimal scalars.

All coefficients, bounds and costs are finite decimals.  They are stored as
``fractions.Fraction`` so that every comparison is exact; min/max, sums and
products of finite decimals are again finite decimals (denominators stay of
the form 2^a * 5^b), so results can always be rendered back as decimal
strings without loss.  An input scalar has at most ``MAX_EXPONENT`` decimal
places and a magnitude below 10**(MAX_EXPONENT + 1), which keeps every such
rendering within the digits Python turns into text.

The module also holds what every loader uses to name a bad input without
echoing all of it: ``quoted`` for a value, and the file reader
``_read_text``, whose message cuts a long path to its end.
"""

from __future__ import annotations

import re
from fractions import Fraction

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# The size rule for every input scalar: at most MAX_EXPONENT decimal places and
# at most MAX_EXPONENT + 1 integer digits.  A product of two such scalars then
# has at most 4002 digits, and a sum of such products a few more, below the
# 4300 digits past which Python refuses to turn an int into text, which
# rendering a result needs.  Parsing builds 10**exponent, so a written
# exponent beyond MAX_EXPONENT is rejected before that.
MAX_EXPONENT = 1000
_PLACES = 10**MAX_EXPONENT  # d | _PLACES iff p/d has at most MAX_EXPONENT places
_MAGNITUDE = 10 * _PLACES
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_scalar(value) -> Fraction:
    """Convert a JSON-ish scalar (str, int, float, Fraction) to a Fraction.

    Strings and ints are exact.  Floats are read through their shortest
    decimal repr, which recovers the decimal literal they were written as.
    Values without a finite decimal form, such as "1/3", are rejected, and so
    is a value of any kind beyond the size rule above.  The loader parses
    each distinct string once per process (see ``model``), so this is not on
    the path of a repeated string.
    """
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, float, str)):
        raise ValueError(f"not a numeric scalar: {quoted(value)}")
    text = repr(value) if isinstance(value, float) else value
    if isinstance(text, str):
        _check_exponent(text)
    try:
        parsed = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a decimal scalar: {quoted(text)}") from exc
    d = parsed.denominator
    # over the size rule whatever d's factors, and then too long to show in a message
    oversized = d > _PLACES or abs(parsed.numerator) >= _MAGNITUDE * d
    if not oversized and pow(10, d.bit_length(), d):  # d | 10^bit_length(d) iff d = 2^a * 5^b
        raise ValueError(f"{quoted(value)} has no finite decimal form")
    if oversized or _PLACES % d:
        shown = quoted(text) if isinstance(text, str) else type(value).__name__
        raise ValueError(
            f"{shown} has more than {MAX_EXPONENT} decimal places"
            f" or more than {MAX_EXPONENT + 1} integer digits"
        )
    return parsed


def _check_exponent(text: str) -> None:
    """Reject a written exponent beyond MAX_EXPONENT before 10**exponent is
    built; the digits are compared as text, so a huge exponent costs nothing."""
    match = _EXPONENT.search(text)
    if match is None:
        return
    digits = match.group(1).replace("_", "").lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
        raise ValueError(f"{quoted(text)} has an exponent beyond +-{MAX_EXPONENT}")


def quoted(value) -> str:
    """repr of an input value, cut short when it is long: a string past 40
    characters to its first 37 and "...", any other repr the same way.  A
    value nested too deep for repr is shown by its type name."""
    if isinstance(value, str):
        return repr(value if len(value) <= 40 else value[:37] + "...")
    try:
        shown = repr(value)
    except RecursionError:
        return type(value).__name__
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _file_message(doing: str, path: str, exc: OSError | ValueError) -> str:
    """"cannot <doing> '<path>': <reason>", under 200 bytes: the reason is
    the system's for an ``OSError`` and ``open``'s own ("embedded null byte")
    for a ``ValueError``; the path is written with ASCII escapes and, past
    100 characters, cut to "..." and its last 97, where the file name is."""
    shown = ascii(path)[1:-1]
    if len(shown) > 100:
        shown = "..." + shown[-97:]
    reason = exc.strerror if isinstance(exc, OSError) else exc
    return f"cannot {doing} '{shown}': {reason}"


def _read_text(path: str, error: type[ValueError], what: str) -> str:
    """The text of a file, or ``error`` saying why the ``what`` file cannot
    be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(_file_message(f"read {what} file", path, exc)) from exc


def decimal_places(value: Fraction) -> int:
    """Digits to write the value exactly: the least k with denominator | 10^k."""
    twos = fives = 0
    d = value.denominator
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"denominator {value.denominator} has no finite decimal form")
    return max(twos, fives)


def decimal_str(value: Fraction) -> str:
    """Exact decimal string, no trailing zeros ('0.66', '-13.0727', '1')."""
    k = decimal_places(value)
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
