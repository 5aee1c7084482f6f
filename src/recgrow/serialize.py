"""Exact text serialization for arbitrarily large rationals.

Big values always travel as base-10 strings ("p/q" or plain digits), never as
native numbers: terms outgrow machine words immediately and JSON numbers
would silently lose digits.  parse(serialize(x)) == x exactly.

CPython before 3.12 converts between ints and decimal text in quadratic time,
and refuses ints longer than ``sys.get_int_max_str_digits()`` digits.  The big
values of eval, bounds, converge and benchmark are built as exact ``Decimal``
integers (:mod:`recgrow.exact`), and a report holds each such value as a
:class:`TwinText`, about 0.42 bytes per digit; :func:`json_chunks` yields the
JSON document piece by piece, a twin's numerator and denominator as separate
pieces, so each part becomes text alone, only while the CLI writes it, and
neither "num/den" nor an escaped copy of it is ever built.

An int printed here is converted by ``str()`` up to :data:`_LEAF_BITS` bits, and
above that by :func:`recgrow.exact.to_decimal`, which splits it by bit position;
only such an int imports :mod:`recgrow.exact`, so a run whose ints are all small
never compiles it.  Parsing splits each digit run and joins the halves with
Karatsuba int multiplication (reducing the parsed fraction with ``math.gcd`` stays
quadratic).  Only pieces far below the limit reach ``str()`` and ``int()``,
so the interpreter-wide limit is never changed.

An exact value is parsed to, and printed from, a lowest-terms int pair ``(num, den)`` with
``den > 0`` (:func:`parse_pair`, :func:`pair_str`); only :func:`parse_rational` builds a
``Fraction``, and imports :mod:`fractions` to do so, so a run that never asks for one loads
neither it nor :mod:`decimal`, which it imports.
"""

from __future__ import annotations

import re
from math import gcd

# pieces this small (about 1200 digits) are converted by str() and int()
_LEAF_BITS = 4000
_LEAF_DIGITS = 1200

# the string grammar of Fraction: an optionally signed "p", "p/q", or decimal
# with optional whole or fraction digits and an optional exponent; single
# underscores may separate digits
_DIGITS = r"(?:\d+(?:_\d+)*)"
_RATIONAL = re.compile(
    rf"([-+]?)(?=\d|\.\d)({_DIGITS}?)(?:/({_DIGITS})|(?:\.({_DIGITS}?))?(?:[eE]([-+]?{_DIGITS}))?)"
)


class TwinText:
    """A checked decimal twin as it prints: ``str()`` gives "num", or "num/den" unless den is 1.

    num and den are exact Decimal integers in :data:`recgrow.exact.EXACT`."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, in subquadratic time for huge ``n``."""
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    from .exact import to_decimal  # only an int this big compiles the module

    return str(to_decimal(n))


def _parse_digits(text: str, powers: dict) -> int:
    """Value of a string of ASCII digits, in subquadratic time for long ones."""
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    k = len(text) >> 1
    if k not in powers:
        powers[k] = 10 ** k
    return _parse_digits(text[:-k], powers) * powers[k] + _parse_digits(text[-k:], powers)


def pair_str(num: int, den: int) -> str:
    """Canonical exact rendering of the lowest-terms pair: "num" when den is 1, "num/den" otherwise."""
    p = _int_str(num)
    return p if den == 1 else f"{p}/{_int_str(den)}"


def frac_str(x) -> str:
    """:func:`pair_str` of a Fraction or an int."""
    return pair_str(x.numerator, x.denominator)


def parse_pair(text: str) -> tuple[int, int]:
    """The lowest-terms pair of a rational string: the inverse of :func:`pair_str`; accepts the strings
    Fraction does, at any length, and only strings."""
    if not isinstance(text, str):
        raise TypeError(f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    sign, whole, den, frac, exp = (g and g.replace("_", "") for g in match.groups())
    powers = {}
    if den is not None:
        p, q = _parse_digits(whole, powers), _parse_digits(den, powers)
        if q == 0:
            raise ZeroDivisionError(f"Fraction({frac_str(p)}, 0)")
    else:
        frac = frac or ""
        p = _parse_digits(whole + frac, powers)
        shift = (int(exp) if exp else 0) - len(frac)
        p, q = (p * 10 ** shift, 1) if shift >= 0 else (p, 10 ** -shift)
    g = gcd(p, q)
    return (-p if sign == "-" else p) // g, q // g


def parse_rational(text: str):
    """The Fraction of :func:`parse_pair`: the exact inverse of :func:`frac_str`."""
    from fractions import Fraction

    return Fraction(*parse_pair(text))


def decimal_str(x, digits: int) -> str:
    """Exact fixed-point rendering of a Fraction on the 10^-digits grid."""
    scaled = x * 10 ** digits
    if scaled.denominator != 1:
        raise ValueError(f"{frac_str(x)} is not on the 10^-{digits} grid")
    return fixed_str(scaled.numerator, digits)


def fixed_str(n: int, digits: int) -> str:
    """n / 10^digits in fixed point, with digits digits after the point."""
    sign = "-" if n < 0 else ""
    text = _int_str(abs(n)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _unserializable(obj) -> TypeError:
    return TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # only strings that need escapes pay for the module

    return json.dumps(text)


def _chunks(obj, newline: str):
    """The JSON text of obj at the indentation that ``newline`` ends with."""
    if type(obj) is TwinText:
        # each part becomes text alone, and no joined or escaped copy of it is made
        yield '"'
        yield str(obj.num)
        if obj.den != 1:
            yield "/"
            yield str(obj.den)
        yield '"'
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise _unserializable(key)
            yield f"{sep}{inner}{_quote(key)}: "
            yield from _chunks(obj[key], inner)
            sep = ","
        yield newline + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner, sep = newline + "  ", "["
        for item in obj:
            yield sep + inner
            yield from _chunks(item, inner)
            sep = ","
        yield newline + "]"
    elif isinstance(obj, str):
        yield _quote(obj)
    elif obj is None or obj is True or obj is False:
        yield "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    else:
        raise _unserializable(obj)


def json_chunks(obj):
    """Deterministic JSON text in chunks, each TwinText as its string: sorted keys, two-space
    indent, separators "," and ": ", ASCII escapes, one trailing newline.  Identical inputs
    give identical text across runs.  Only str keys, and only dict, list, tuple, str, int,
    bool, None and TwinText values, are JSON; any other raises TypeError."""
    yield from _chunks(obj, "\n")
    yield "\n"
