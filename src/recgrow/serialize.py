"""Exact text serialization for arbitrarily large rationals.

Big values always travel as base-10 strings ("p/q" or plain digits), never as
native numbers: terms outgrow machine words immediately and JSON numbers
would silently lose digits.  parse(serialize(x)) == x exactly.

CPython before 3.12 converts between ints and decimal text in quadratic time,
and refuses ints longer than ``sys.get_int_max_str_digits()`` digits.  The
big values of eval, bounds, converge and benchmark are therefore never ints:
:mod:`recgrow.twins` builds each one once, as exact ``Decimal`` integers in
:data:`EXACT`, whose multiplication is subquadratic and whose ``str()`` takes
linear time, so a chain that stays in the output radix costs O(M(n)) where
radix conversion costs M(n) log n (Brent and Zimmermann, *Modern Computer
Arithmetic*, 2010, section 1.7).  A report holds each such value as a
:class:`TwinText`, about 0.42 bytes per digit; :func:`json_chunks` yields the
JSON document piece by piece, a twin's numerator and denominator as separate
pieces, so each part becomes text alone, only while the CLI writes it, and
neither "num/den" nor an escaped copy of it is ever built.

The ints printed here convert by divide and conquer: :func:`to_decimal`
splits an int by bit position and joins the halves in :data:`EXACT`.
Parsing splits each digit run and joins the halves with Karatsuba int
multiplication (reducing the parsed fraction with ``math.gcd`` stays
quadratic).  Only pieces far below the limit reach ``str()`` and ``int()``,
so the interpreter-wide limit is never changed.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction

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


#: The exact context of every big Decimal: integer operands keep exponent 0, and
#: a trap turns any rounding into an error
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow],
)


def to_decimal(n: int) -> decimal.Decimal:
    """Exact Decimal of ``n``, in subquadratic time for huge ``n``."""
    if n < 0:
        return EXACT.minus(to_decimal(-n))
    if n.bit_length() <= _LEAF_BITS:
        return decimal.Decimal(n)
    powers = {}

    def power_of_two(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _LEAF_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                half = power_of_two(w >> 1)
                square = EXACT.multiply(half, half)
                powers[w] = EXACT.multiply(square, 2) if w & 1 else square
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w; splitting by the nominal width w, not n's bit length,
        # keeps the widths per level to two, so the powers cache stays small
        if w <= _LEAF_BITS:
            return decimal.Decimal(n)
        w2 = w >> 1
        hi = n >> w2
        return EXACT.fma(convert(hi, w - w2), power_of_two(w2), convert(n - (hi << w2), w2))

    return convert(n, n.bit_length())


class TwinText:
    """A checked decimal twin as it prints: ``str()`` gives "num", or "num/den" unless den is 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: decimal.Decimal, den: decimal.Decimal):
        self.num, self.den = num, den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, in subquadratic time for huge ``n``."""
    return str(n) if n.bit_length() <= _LEAF_BITS else str(to_decimal(n))


def _parse_digits(text: str, powers: dict) -> int:
    """Value of a string of ASCII digits, in subquadratic time for long ones."""
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    k = len(text) >> 1
    if k not in powers:
        powers[k] = 10 ** k
    return _parse_digits(text[:-k], powers) * powers[k] + _parse_digits(text[-k:], powers)


def frac_str(x: Fraction | int) -> str:
    """Canonical exact rendering: "p" for integers, "p/q" otherwise."""
    p = _int_str(x.numerator)
    return p if x.denominator == 1 else f"{p}/{_int_str(x.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Exact inverse of :func:`frac_str`; accepts the strings Fraction does, at any length, and only strings."""
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
    return Fraction(-p if sign == "-" else p, q)


def decimal_str(x: Fraction, digits: int) -> str:
    """Exact fixed-point rendering of a value on the 10^-digits grid."""
    scaled = x * 10 ** digits
    if scaled.denominator != 1:
        raise ValueError(f"{frac_str(x)} is not on the 10^-{digits} grid")
    n = scaled.numerator
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
