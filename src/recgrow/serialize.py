"""Exact text serialization for arbitrarily large rationals.

Big values always travel as base-10 strings ("p/q" or plain digits), never as
native numbers: terms outgrow machine words immediately and JSON numbers
would silently lose digits.  parse(serialize(x)) == x exactly.

CPython before 3.12 converts between ints and decimal text in quadratic time,
and refuses ints longer than ``sys.get_int_max_str_digits()`` digits.  The
values the CLI prints are therefore computed twice: as ints, which make every
comparison and gcd, and as *decimal twins*, the same numerator and
denominator built by the same recurrence steps and squarings in the C
``decimal`` module, in one exact context (:data:`EXACT`).  Its multiplication
is subquadratic and ``str(Decimal)`` takes linear time, so a chain that stays
in the output radix costs O(M(n)) where radix conversion costs M(n) log n
(Brent and Zimmermann, *Modern Computer Arithmetic*, 2010, section 1.7).
:func:`frac_str` prints a twin only after checking it against its int modulo
the prime 2^61 - 1, in linear time on both sides; a mismatch raises
:class:`~recgrow.errors.CertificateError`.  A twin is never converted back to
an int, since ``int(Decimal)`` is quadratic.

Values without a twin fall back to divide and conquer: :func:`to_decimal`
splits an int by bit position and joins the halves in the same context.
Parsing splits each digit run and joins the halves with Karatsuba int
multiplication (reducing the parsed fraction with ``math.gcd`` stays
quadratic).  Only pieces far below the limit reach ``str()`` and ``int()``,
so the interpreter-wide limit is never changed.
"""

from __future__ import annotations

import decimal
import json
import math
import re
from fractions import Fraction

from .errors import CertificateError

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


#: The context of every decimal twin: integer operands keep exponent 0, and a
#: trap turns any rounding into an error
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow],
)

# twins are checked against their ints modulo this prime
_CHECK_PRIME = 2**61 - 1
_ONE = decimal.Decimal(1)


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


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, in subquadratic time for huge ``n``."""
    return str(n) if n.bit_length() <= _LEAF_BITS else str(to_decimal(n))


def twin_of(x: Fraction | int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """The decimal twin (numerator, denominator) of ``x``."""
    return to_decimal(x.numerator), to_decimal(x.denominator)


def twin_reduce(x: decimal.Decimal, y: decimal.Decimal, w: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """x/g and y/g for twins x and y != 0 with g = gcd(x, y), given that every prime
    of g divides the small int ``w``: remainders modulo small ints find g."""

    def common(m: int) -> int:
        c = m if m == 1 else math.gcd(m, int(EXACT.remainder(x, to_decimal(m))))
        return c if c == 1 else math.gcd(c, int(EXACT.remainder(y, to_decimal(c))))

    c = common(w)
    while c > 1:
        x, y = EXACT.divide_int(x, to_decimal(c)), EXACT.divide_int(y, to_decimal(c))
        c = common(c * c)
    return x, y


def _digits(n: int, t: decimal.Decimal | None) -> str:
    if t is None:
        return _int_str(n)
    if not (t.same_quantum(_ONE) and int(EXACT.remainder(t, _CHECK_PRIME)) % _CHECK_PRIME == n % _CHECK_PRIME):
        raise CertificateError(f"the decimal twin of a {n.bit_length()}-bit integer fails its check modulo 2^61 - 1")
    return str(t)


def _parse_digits(text: str, powers: dict) -> int:
    """Value of a string of ASCII digits, in subquadratic time for long ones."""
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    k = len(text) >> 1
    if k not in powers:
        powers[k] = 10 ** k
    return _parse_digits(text[:-k], powers) * powers[k] + _parse_digits(text[-k:], powers)


def frac_str(x: Fraction | int, twin: tuple | None = None) -> str:
    """Canonical exact rendering: "p" for integers, "p/q" otherwise.

    ``twin`` is x's decimal twin (numerator, denominator); each part printed
    is taken from it once it passes its residue check against x.
    """
    num, den = twin or (None, None)
    p = _digits(x.numerator, num)
    return p if x.denominator == 1 else f"{p}/{_digits(x.denominator, den)}"


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
