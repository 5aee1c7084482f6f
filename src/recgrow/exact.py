"""Exact big decimals: the context :data:`EXACT` and the int conversion :func:`to_decimal`.

CPython before 3.12 converts between ints and decimal text in quadratic time,
and refuses ints longer than ``sys.get_int_max_str_digits()`` digits.  The
big values of eval, bounds, converge and benchmark are therefore never ints:
:mod:`recgrow.twins` builds each one once, as exact ``Decimal`` integers in
:data:`EXACT`, whose multiplication is subquadratic and whose ``str()`` takes
linear time, so a chain that stays in the output radix costs O(M(n)) where
radix conversion costs M(n) log n (Brent and Zimmermann, *Modern Computer
Arithmetic*, 2010, section 1.7).

:func:`to_decimal` splits an int by bit position and joins the halves in
:data:`EXACT`.  Only :mod:`recgrow.twins` and the printing of an int over
:data:`~recgrow.serialize._LEAF_BITS` bits load this module, so no other run
compiles it.
"""

from __future__ import annotations

import decimal

from .serialize import _LEAF_BITS

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
