"""Wire formats for exact rationals.

Every number that crosses a process boundary (CLI input, reports,
certificates) travels as a string "p" or "p/q" so that no reader is tempted
to round it. These helpers are the single place that parses and prints them.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction

# Scientific notation may not describe a number longer than Python accepts
# written out in full (4300 digits): "1e1000000" would otherwise build a
# 3.3-million-bit integer before anything looks at it.
MAX_EXPONENT = 4300
# A rational string may carry at most this many digits, in any form. Every
# digit run is read in pieces, so values round-trip beyond the interpreter's
# int-to-str limit. _RATIONAL is the grammar Fraction() reads: "p" and "p/q",
# the forms `fraction_str` prints, with underscores, decimal points and
# exponents.
MAX_DIGITS = 20_000
_RATIONAL = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<denom>\d+(?:_\d+)*)
     |(?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?
      (?:[eE](?P<exp_sign>[-+]?)(?P<exp>\d+(?:_\d+)*))?
    )\s*\Z
""", re.VERBOSE)
# Diagnostics quote at most this many characters of a rejected value.
_QUOTE_CHARS = 40
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
# Integers up to this many bits (at most 603 digits) print with str(), and
# digit strings up to _INT_DIGITS long read with int(), under any int-to-str
# digit limit the interpreter allows (the least is 640).
_STR_BITS = 2000
_INT_DIGITS = 600


class FormatError(ValueError):
    """Malformed external input; carries a field path for diagnostics."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"field '{field}': {message}")


def _quote(value) -> str:
    """A short quotation of untrusted input: the whole string, or a prefix and its length.

    Any other value is quoted by its repr, bounded in depth and width before
    it is built (a decoded JSON list may be too deep for plain repr) and cut
    to the same length.
    """
    if not isinstance(value, str):
        text = _REPR.repr(value)
        return text if len(text) <= _QUOTE_CHARS else f"{text[:_QUOTE_CHARS]}..."
    if len(value) <= _QUOTE_CHARS:
        return repr(value)
    return f"{value[:_QUOTE_CHARS]!r}... ({len(value)} characters)"


def as_fraction(value, field: str = "value") -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        length = sum(map(str.isdecimal, value))
        if length > MAX_DIGITS:
            raise FormatError(field, f"{length} digits exceed the bound of {MAX_DIGITS}")
        return _read_rational(value, field)
    raise FormatError(field, f"expected rational string or integer, got {type(value).__name__}")


def _read_rational(value: str, field: str) -> Fraction:
    """A string in Fraction()'s grammar, every digit run read in pieces."""
    form = _RATIONAL.match(value)
    if not form:
        raise FormatError(field, f"invalid rational {_quote(value)}")
    numerator = _digits_int(form["num"].replace("_", "") or "0")
    denominator = 1
    if form["denom"]:
        denominator = _digits_int(form["denom"].replace("_", ""))
        if denominator == 0:
            raise FormatError(field, f"zero denominator in {_quote(value)}")
    if form["decimal"]:
        decimal = form["decimal"].replace("_", "")
        denominator = 10 ** len(decimal)
        numerator = numerator * denominator + _digits_int(decimal)
    if form["exp"]:
        exponent = _digits_int(form["exp"].replace("_", ""))
        if exponent > MAX_EXPONENT:
            raise FormatError(field, f"exponent exceeds {MAX_EXPONENT} in magnitude")
        if form["exp_sign"] == "-":
            denominator *= 10 ** exponent
        else:
            numerator *= 10 ** exponent
    return Fraction(-numerator if form["sign"] == "-" else numerator, denominator)


def _digits_int(digits: str) -> int:
    """The int of a decimal digit string, read in pieces short enough for int()."""
    if len(digits) <= _INT_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _digits_int(digits[:-half]) * 10 ** half + _digits_int(digits[-half:])


def _int_str(n: int) -> str:
    """Exact decimal digits of any int, in pieces short enough for str()."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    half = (n.bit_length() * 3 // 10) // 2  # about half the decimal digits
    high, low = divmod(n, 10 ** half)
    return _int_str(high) + _int_str(low).zfill(half)


def fraction_str(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (canonical lowest terms)."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def fraction_list(values) -> list[str]:
    return [fraction_str(v) for v in values]


def parse_fraction_list(data, field: str) -> tuple[Fraction, ...]:
    if not isinstance(data, (list, tuple)):
        raise FormatError(field, f"expected a list of rationals, got {type(data).__name__}")
    return tuple(as_fraction(v, f"{field}[{i}]") for i, v in enumerate(data))


def require_key(obj, key: str, field: str):
    if not isinstance(obj, dict):
        raise FormatError(field, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise FormatError(f"{field}.{key}", "missing required key")
    return obj[key]
