"""Wire formats for exact rationals.

Every number that crosses a process boundary (CLI input, reports,
certificates) travels as a string "p" or "p/q" so that no reader is tempted
to round it. These helpers are the single place that parses and prints them.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Scientific notation may not describe a number longer than Python accepts
# written out in full (4300 digits): "1e1000000" would otherwise build a
# 3.3-million-bit integer before anything looks at it.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# Diagnostics quote at most this many characters of a rejected string.
_QUOTE_CHARS = 40
# Integers up to this many bits (at most 603 digits) print with str() under
# any int-to-str digit limit the interpreter allows (the least is 640).
_STR_BITS = 2000


class FormatError(ValueError):
    """Malformed external input; carries a field path for diagnostics."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"field '{field}': {message}")


def _quote(value: str) -> str:
    """A short quotation of untrusted input: the whole string, or a prefix and its length."""
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
        exponent = _EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
                raise FormatError(field, f"exponent exceeds {MAX_EXPONENT} in magnitude")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise FormatError(field, f"zero denominator in {_quote(value)}") from None
        except ValueError:
            raise FormatError(field, f"invalid rational {_quote(value)}") from None
    raise FormatError(field, f"expected rational string or integer, got {type(value).__name__}")


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
