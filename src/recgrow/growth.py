"""Certified enclosure of the doubly-exponential growth constant.

Raising the bilateral bound to the 2^(k+l)-th root and letting k grow shows
that C = lim (b*D(n))^(1/2^n) exists and satisfies, for every witness index l,

    (b*D(l))^(1/2^l)  <=  C  <=  (b*D(l)*Q(l))^(1/2^l).

:func:`growth_enclosure` turns one such bracket into decimal endpoints with
outward rounding, so the reported interval still provably contains C.  Each
endpoint's 2^l-th power is compared with the bracket by
:func:`~recgrow.roots.pow_cmp` (outward-rounded integer squarings with an
exact fallback), so the check never forms a 2^l x digits number.  b*D(n) grows like
C^(2^n), i.e. log2(ln(b*D(n)))/n -> 1, which :func:`log_log_index` tracks.
"""

from __future__ import annotations

import decimal
from collections import namedtuple
from fractions import Fraction

from .errors import CertificateError, InvalidParamsError, ToleranceUnachievableError
from .recurrence import (
    DEFAULT_CAP, DEFAULT_MAX_DIGITS, Params, SequenceTable, check_benchmark_regime, check_cap, evaluate, q_factor
)
from .roots import digit_budget, digits_for, nth_root_lower, nth_root_upper, pow_cmp
from .serialize import EXACT, frac_str, to_decimal

#: Finest relative tolerance the enclosure contract accepts.
MIN_RTOL = Fraction(1, 10 ** 30)


class GrowthEnclosure(namedtuple("GrowthEnclosure", "l c_lo c_hi digits")):
    """Certified decimal interval [c_lo, c_hi] containing the growth constant.

    Endpoints live on the 10^-digits grid and satisfy, exactly,
    c_lo^(2^l) <= b*D(l) and c_hi^(2^l) >= b*D(l)*Q(l).
    """

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.c_hi - self.c_lo


def growth_enclosure(
    params: Params,
    l: int,
    rtol,
    cap: int = DEFAULT_CAP,
    max_digits: int = DEFAULT_MAX_DIGITS,
) -> GrowthEnclosure:
    """Enclose C between outward-rounded 2^l-th roots of b*D(l) and b*D(l)*Q(l).

    Each endpoint carries relative error <= rtol (rtol >= 10^-30), and the
    grid is additionally refined below the bracket's own width so the
    reported interval tracks the true one instead of the rounding floor.
    Every pass of l square roots or squarings is held to max_digits decimal
    digits (see :func:`~recgrow.roots.digit_budget`).
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    # floats are fine for tolerances (unlike coefficients): the binary value
    # they denote is used exactly
    rt = Fraction(rtol)
    if not MIN_RTOL <= rt < 1:
        raise InvalidParamsError(f"rtol must lie in [{MIN_RTOL}, 1), got {frac_str(rt)}")
    table = evaluate(params, l, cap=cap)
    m = 2 ** l
    x_lo = params.b * table[l]
    q = q_factor(params, table, l)
    x_hi = x_lo * q

    with digit_budget(max_digits):
        # coarse pass only to learn the root's magnitude; never 0, since
        # b*D(l) = ab + b^2*D(l-1)^2 > ab >= 1/4 puts the root above 1/2
        c0 = nth_root_lower(x_lo, m, 8)
        # grid below both the tolerance and the bracket width c*ln(Q)/m, estimated
        # from below via ln(Q) >= (Q-1)/Q; keeps rounding from dominating the width
        target = min(rt * c0 / 2, c0 * (q - 1) / (q * m) / 20)
        s = digits_for(target)
        c_lo = nth_root_lower(x_lo, m, s)
        c_hi = nth_root_upper(x_hi, m, s)
        # the containment contract, checked again on the returned endpoints
        if not (pow_cmp(c_lo, m, x_lo) <= 0 and pow_cmp(c_hi, m, x_hi) >= 0):
            raise CertificateError(f"[{frac_str(c_lo)}, {frac_str(c_hi)}] does not enclose the 2^{l}-th root bracket")
    if not Fraction(1, 10 ** s) <= rt * c_lo:
        raise CertificateError(f"grid 10^-{s} is coarser than rtol={frac_str(rt)} at c_lo={frac_str(c_lo)}")
    return GrowthEnclosure(l=l, c_lo=c_lo, c_hi=c_hi, digits=s)


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
    num, den = decimal.Context(prec=prec * 30103 // 100000 + 41).ln(x).as_integer_ratio()
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


def log_log_index(table: SequenceTable, n: int, rtol) -> Fraction:
    """log2(ln(b*D(n))) / n with relative error <= rtol.

    Tends to 1 as n grows (deviation ~ |log2(ln C)| / n).  Evaluated at
    escalating precision until two consecutive passes agree within rtol/2;
    the returned Fraction is the exact value of the final binary float.  A
    pass in which ln(b*D(n)) cancels to zero or below gives no value.
    """
    if not 1 <= n <= table.n_max:
        raise IndexError(f"n={n} outside table range 1..{table.n_max}")
    rt = Fraction(rtol)
    if rt <= 0:
        raise ValueError("rtol must be positive")
    x = table.params.b * table[n]
    if x <= 1:
        raise InvalidParamsError(f"b*D(n) must exceed 1 for the double log, got {frac_str(x)}")

    prec = 80
    prev = _log_log_pass(x, n, prec)
    while prec <= 1 << 22:
        prec *= 2
        cur = _log_log_pass(x, n, prec)
        if prev is not None and cur is not None and abs(cur - prev) <= rt * abs(cur) / 2:
            return cur
        prev = cur
    raise ToleranceUnachievableError(f"log-log index did not stabilize to rtol={frac_str(rt)}")


def doubling_benchmark(n: int, cap: int = DEFAULT_CAP) -> int:
    """Comparison sequence 2^(2^(n-1)) for n >= 1, with the n = 0 value
    pinned to 1 by convention (the closed form would give sqrt(2))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_cap(n, cap)
    if n == 0:
        return 1
    return 2 ** (2 ** (n - 1))


class BenchmarkRow(namedtuple("BenchmarkRow", "n value benchmark dominates")):
    __slots__ = ()


def compare_to_benchmark(params: Params, n_max: int, cap: int = DEFAULT_CAP) -> list[BenchmarkRow]:
    """Rows (n, D(n), 2^(2^(n-1)), D(n) >= benchmark) for n = 0..n_max.

    Asserted regime: see :func:`~recgrow.recurrence.check_benchmark_regime`.
    """
    check_benchmark_regime(params)
    table = evaluate(params, n_max, cap=cap)
    rows = []
    for n in range(n_max + 1):
        mark = doubling_benchmark(n, cap=cap)
        rows.append(BenchmarkRow(n, table[n], mark, table[n] >= mark))
    return rows
