"""Certified 2^l-th roots on a decimal grid.

The primitives here return Fractions r / 10^digits that bracket the 2^l-th
root of x >= 0 (growth takes roots of its radicands) from one side, with the
defining inequality (r/10^digits)^(2^l) <= x or >= x holding *exactly*, and
within one grid step of the root, so callers control accuracy purely through
``digits``.  Correctness never depends on floating point.  One comparison,
:func:`pow_cmp`, certifies every such inequality: the powers of the grid
point's numerator and denominator are built by l squarings, each rounded
outward to integer brackets that decide it, falling back to exact powers when
they do not.  A candidate from l floor square roots is proven to lie on the
floor of the scaled root or one grid step below it, so one comparison picks
the floor; the scaled radicand x * 10^(digits*2^l) is never formed.  Each
pass of square roots or squarings is checked against the ``max_digits``
budget of its call before it starts (see :func:`_check_budget`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ToleranceUnachievableError
from .recurrence import DEFAULT_MAX_DIGITS

#: Bits kept beyond the operands' own size by the candidate and the brackets.
_GUARD_BITS = 64


def _check_budget(max_digits: int, prec: int, l: int, v_bits: int) -> None:
    """Refuse, by ToleranceUnachievableError, a pass whose steps of about 2*prec bits build over max_digits digits."""
    # a power v^(2^l) of a v of at most v_bits bits takes l squarings; the one reaching
    # v^(2^(l-i)) builds 2*min(prec, v_bits << (l-i)) bits, 2*prec once v_bits << (l-i) >= prec
    charges = [2 * min(prec, v_bits << (l - i)) for i in range(l)]
    need = sum(charges) * 30103 // 100000 + 1  # decimal digits of that many bits
    if need > max_digits:
        raise ToleranceUnachievableError(
            f"{len(charges)} squarings and products at {prec}-bit precision need {need} digits, "
            f"over the {max_digits}-digit budget"
        )


def _pow_bracket(v: int, l: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= v^(2^l) <= hi * 2^e, for v >= 0.

    Each of the l squarings is cut back to about ``prec`` bits, by a floor
    shift for lo and a ceiling shift for hi, so lo == hi exactly when no
    step was rounded.
    """
    lo = hi = v
    e = 0
    for _ in range(l):
        lo, hi, e = lo * lo, hi * hi, 2 * e
        drop = hi.bit_length() - prec
        if drop > 0:
            lo >>= drop
            hi = -(-hi >> drop)
            e += drop
    return lo, hi, e


def _cmp_scaled(a: int, ea: int, b: int, eb: int) -> int:
    """sign(a * 2^ea - b * 2^eb)."""
    if ea >= eb:
        a <<= ea - eb
    else:
        b <<= eb - ea
    return (a > b) - (a < b)


def pow_cmp(base: Fraction, l: int, x: Fraction, max_digits: int = DEFAULT_MAX_DIGITS) -> int:
    """sign(base^(2^l) - x) for base, x >= 0, never forming base^(2^l).

    With base = p/q and x = X/Y this is the sign of p^(2^l)*Y - q^(2^l)*X.
    Both powers are bracketed by :func:`_pow_bracket` and the brackets are
    cross-multiplied.  While they overlap the precision doubles, up to the
    size of the exact powers, where no step rounds, so equality is decided
    too, unless a pass would build over ``max_digits`` digits.
    """
    p, q = base.numerator, base.denominator
    big_x, big_y = x.numerator, x.denominator
    base_bits = max(p.bit_length(), q.bit_length())
    prec = base_bits + _GUARD_BITS
    while True:
        _check_budget(max_digits, prec, l, base_bits)
        p_lo, p_hi, ep = _pow_bracket(p, l, prec)
        q_lo, q_hi, eq = _pow_bracket(q, l, prec)
        if _cmp_scaled(p_hi * big_y, ep, q_lo * big_x, eq) < 0:
            return -1
        if _cmp_scaled(p_lo * big_y, ep, q_hi * big_x, eq) > 0:
            return 1
        if p_lo == p_hi and q_lo == q_hi:
            return 0
        prec = min(2 * prec, base_bits << l)  # no step rounds at the bit length of the exact powers


def _root_candidate(x: Fraction, l: int, digits: int, max_digits: int) -> int:
    """r with rho - 2 < r <= rho for rho = x^(1/2^l) * 10^digits: floor(rho) or one below it.

    a_0 = floor(x * 2^(2*prec - log2_x)) and l floor square roots take the root, each argument first
    shifted (and floored) to 2*prec or 2*prec + 1 bits with an even exponent.  Let V_i = a_i * 2^e_i
    after i roots and y_i = x^(1/2^i).
    - r <= rho: every step floors and is monotone (the division, each shift, each isqrt and the
      final scaling by 10^digits * 2^e_l), so V_i <= y_i.
    - r > rho - 2: x lies in (2^(log2_x - 1), 2^(log2_x + 1)), so a_0 and every shifted argument are
      >= 2^(2*prec - 1).  The division and each shift lose under 2^(1 - 2*prec) relative, and each
      isqrt, of a root >= 2^(prec - 1/2), under h = 2^(1 - prec).  With V_i = y_i (1 - eps_i) and
      sqrt(1 - u) >= 1 - u(1 + u)/2, eps_(i+1) < (eps_i + h)(1 + eps_i + h)/2 + h: each root halves
      the error before it, so eps_i < 4h = 2^(3 - prec) for every i, as eps_0 < h and prec >= 64.
      By the choice of prec, log2 rho < (log2_x >> l) + 1 + digits*log2(10) < (log2_x >> l) +
      digits*10//3 + 2 <= prec - 62, and the final floor gives r > rho - rho*2^(3 - prec) - 1 > rho - 2.
    The precision follows rho, so the bound holds for a huge x as for a small one.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        return 0
    log2_x = num.bit_length() - den.bit_length()  # within 1 of log2(x)
    prec = max(0, (log2_x >> l) + digits * 10 // 3) + _GUARD_BITS
    # the root steps work on 2*prec-bit integers whatever the size of x
    _check_budget(max_digits, prec, l, prec)
    shift = 2 * prec - log2_x
    a = (num << shift) // den if shift >= 0 else num // (den << -shift)
    e = -shift
    for _ in range(l):
        # back to 2*prec bits with an even exponent, so the root keeps prec bits
        t = 2 * prec - a.bit_length()
        t += (e - t) & 1
        a = a << t if t >= 0 else a >> -t
        a, e = math.isqrt(a), (e - t) // 2
    r = a * 10 ** digits
    return r << e if e >= 0 else r >> -e


def _floor_point(x: Fraction, l: int, digits: int, max_digits: int) -> int:
    """floor(x^(1/2^l) * 10^digits): the candidate, or the point above it if that one's power is <= x."""
    r = _root_candidate(x, l, digits, max_digits)
    return r + (pow_cmp(Fraction(r + 1, 10 ** digits), l, x, max_digits) <= 0)


def nth_root_lower(x: Fraction, l: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Largest grid point r/10^digits with (r/10^digits)^(2^l) <= x.

    The true root lies in [result, result + 10^-digits).
    """
    return Fraction(_floor_point(x, l, digits, max_digits), 10 ** digits)


def nth_root_upper(x: Fraction, l: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Smallest grid point t/10^digits with (t/10^digits)^(2^l) >= x.

    The true root lies in (result - 10^-digits, result]: the floor point if the root is on it, else the next.
    """
    r = _floor_point(x, l, digits, max_digits)
    return Fraction(r + (pow_cmp(Fraction(r, 10 ** digits), l, x, max_digits) < 0), 10 ** digits)
