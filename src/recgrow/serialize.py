"""Exact text serialization for arbitrarily large rationals.

Big values always travel as base-10 strings ("p/q" or plain digits), never as
native numbers: terms outgrow machine words immediately and JSON numbers
would silently lose digits.  parse(serialize(x)) == x exactly.

CPython before 3.12 converts between ints and decimal text in quadratic time,
and refuses ints longer than ``sys.get_int_max_str_digits()`` digits.  Huge
integers are therefore converted by divide and conquer (Brent and Zimmermann,
*Modern Computer Arithmetic*, 2010, section 1.7): rendering splits an int by
bit position and joins the halves in the C ``decimal`` module, whose
multiplication is subquadratic; parsing splits each digit run and joins the
halves with Karatsuba int multiplication (reducing the parsed fraction with
``math.gcd`` stays quadratic).  Only pieces far below the limit reach
``str()`` and ``int()``, so the interpreter-wide limit is never changed.
"""

from __future__ import annotations

import decimal
import json
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


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, in subquadratic time for huge ``n``."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    # integer operands keep exponent 0; a trap turns any rounding into an error
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow],
    )
    powers = {}

    def power_of_two(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _LEAF_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                half = power_of_two(w >> 1)
                square = ctx.multiply(half, half)
                powers[w] = ctx.multiply(square, 2) if w & 1 else square
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w; splitting by the nominal width w, not n's bit length,
        # keeps the widths per level to two, so the powers cache stays small
        if w <= _LEAF_BITS:
            return decimal.Decimal(n)
        w2 = w >> 1
        hi = n >> w2
        return ctx.fma(convert(hi, w - w2), power_of_two(w2), convert(n - (hi << w2), w2))

    return str(convert(n, n.bit_length()))


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
    """Exact inverse of :func:`frac_str`; accepts every string Fraction does."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        return Fraction(text)  # raises Fraction's own error
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


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, fixed separators, one trailing
    newline.  Identical inputs give identical bytes across runs."""
    return (json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n").encode("utf-8")
