"""The rounded passes behind :func:`~recgrow.growth.log_log_index`.

Each pass replays, with ints and :mod:`decimal`, what mpmath computes for
log2(ln x) / n at a given binary precision: every step is rounded to nearest
at that precision.  ``log_log_index`` imports this module only when it runs,
so a ``growth`` run without ``--loglog-n`` never compiles it.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .serialize import EXACT, to_decimal


def _round(num: int, den: int, prec: int, exp: int = 0) -> tuple[int, int]:
    """num/den * 2^exp (den > 0) rounded to prec bits, to nearest with ties to even,
    as the pair (m, e) meaning m*2^e."""
    if not num:
        return 0, 0
    a = abs(num)
    e = a.bit_length() - den.bit_length() - prec
    if e < 0:
        a <<= -e
    else:
        den <<= e
    # a/den now lies in [2^(prec-1), 2^(prec+1))
    if a >= den << prec:
        den <<= 1
        e += 1
    q, r = divmod(a, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    return (q if num > 0 else -q), e + exp


def _add(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x + y, of pairs (m, e), rounded to prec bits."""
    (mx, ex), (my, ey) = x, y
    e = min(ex, ey)
    return _round((mx << (ex - e)) + (my << (ey - e)), 1, prec, e)


def _ln(m: int, e: int, prec: int) -> tuple[int, int]:
    """ln(m*2^e), m > 0, rounded to prec bits.

    Decimal's ln is correctly rounded (Cowlishaw, General Decimal Arithmetic);
    with 40 guard digits, rounding it again to binary gives the correctly
    rounded binary value unless ln lies within about 10^-40 ulp of a midpoint.
    """
    x = to_decimal(m << e) if e >= 0 else EXACT.scaleb(to_decimal(m * 5 ** -e), e)
    num, den = decimal.Context(prec=prec * 30103 // 100000 + 41, traps=[]).ln(x).as_integer_ratio()
    return _round(num, den, prec)


def _log_log_pass(x: Fraction, n: int, prec: int) -> Fraction | None:
    """log2(ln x) / n as mpmath computes it at mp.prec = prec, or None if ln x rounds to <= 0.

    Every step is mpmath's, each rounded to nearest at prec bits: ln of an int
    is (bits-1)*ln2 plus the log of its leading prec+1 bits rounded to a
    mantissa in [1, 2], so huge integers never reach the transcendental code.
    mpmath's own steps are correctly rounded too, except where a value lies
    within about 2^-20 ulp of a midpoint (it works at prec + 20 bits), so the
    two agree bit for bit but in such a case.
    """
    ln2_m, ln2_e = _ln(1, 1, prec)

    def ln_int(k: int) -> tuple[int, int]:
        shift = k.bit_length() - 1
        drop = max(0, shift - prec)
        mant = _round(k >> drop, 1, prec, drop - shift)
        return _add(_round(shift * ln2_m, 1, prec, ln2_e), _ln(*mant, prec), prec)

    m, e = ln_int(x.denominator)
    m, e = _add(ln_int(x.numerator), (-m, e), prec)
    if m <= 0:
        return None
    m, e = _ln(m, e, prec)
    m, e = _round(m, ln2_m, prec, e - ln2_e)
    m, e = _round(m, n, prec, e)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
