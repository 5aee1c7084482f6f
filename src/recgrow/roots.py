"""Certified 2^l-th roots on a decimal grid.

The primitives here return Fractions of the form r / 10^digits that bracket
an irrational root of x from one side (growth takes 2^l-th roots of its
radicands), with the defining inequality (r/10^s)^n <= x or >= x holding
*exactly*.  Each bound is also within one grid ulp of the true root, so
callers control accuracy purely through ``digits``.  Correctness never
depends on floating point.  One comparison, :func:`pow_cmp`, certifies every
order n = 2^l: the powers of the grid point's numerator and denominator are
built by l squarings, each rounded outward to integer brackets that decide
the comparison, falling back to exact powers when they do not.  A candidate
comes from a mantissa-exponent pair of x and l floor square roots; the
scaled radicand x * 10^(digits*n) is never formed.  Each pass of square
roots or squarings is checked against the ``max_digits`` budget of its call
before it starts (see :func:`_check_budget`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ToleranceUnachievableError
from .recurrence import DEFAULT_MAX_DIGITS

#: Bits kept beyond the operands' own size by the candidate and the brackets.
_GUARD_BITS = 64


def _check_order(n: int) -> None:
    """Refuse, by ValueError, a root order n that is not a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"root order must be a power of two, got {n}")


def _check_budget(max_digits: int, prec: int, n: int, v_bits: int) -> None:
    """Refuse, by ToleranceUnachievableError, a pass whose steps of about 2*prec bits build over max_digits digits."""
    # a power v^n, n = 2^l, of a v of at most v_bits bits takes l squarings; the one reaching
    # v^(n >> i) builds 2*min(prec, (n >> i)*v_bits) bits, 2*prec once (n >> i)*v_bits >= prec
    charges = [2 * min(prec, (n >> i) * v_bits) for i in range(n.bit_length() - 1)]
    need = sum(charges) * 30103 // 100000 + 1  # decimal digits of that many bits
    if need > max_digits:
        raise ToleranceUnachievableError(
            f"{len(charges)} squarings and products at {prec}-bit precision need {need} digits, "
            f"over the {max_digits}-digit budget"
        )


def _pow_bracket(v: int, n: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= v^n <= hi * 2^e, for v >= 0 and n = 2^l.

    Each of the l squarings is cut back to about ``prec`` bits, by a floor
    shift for lo and a ceiling shift for hi, so lo == hi exactly when no
    step was rounded.
    """
    lo = hi = v
    e = 0
    for _ in range(n.bit_length() - 1):
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


def pow_cmp(base: Fraction, n: int, x: Fraction, max_digits: int = DEFAULT_MAX_DIGITS) -> int:
    """sign(base^n - x) for base, x >= 0 and n = 2^l, never forming base^n.

    With base = p/q and x = X/Y this is the sign of p^n*Y - q^n*X.  Both
    powers are bracketed by :func:`_pow_bracket` and the brackets are
    cross-multiplied.  While they overlap the precision doubles, up to the
    size of the exact powers, where no step rounds, so equality is decided
    too, unless a pass would build over ``max_digits`` digits.
    """
    _check_order(n)
    p, q = base.numerator, base.denominator
    big_x, big_y = x.numerator, x.denominator
    base_bits = max(p.bit_length(), q.bit_length())
    prec = base_bits + _GUARD_BITS
    while True:
        _check_budget(max_digits, prec, n, base_bits)
        p_lo, p_hi, ep = _pow_bracket(p, n, prec)
        q_lo, q_hi, eq = _pow_bracket(q, n, prec)
        if _cmp_scaled(p_hi * big_y, ep, q_lo * big_x, eq) < 0:
            return -1
        if _cmp_scaled(p_lo * big_y, ep, q_hi * big_x, eq) > 0:
            return 1
        if p_lo == p_hi and q_lo == q_hi:
            return 0
        prec = min(2 * prec, n * base_bits)  # no step rounds at the bit length of the exact powers


def _root_candidate(x: Fraction, n: int, digits: int, max_digits: int) -> int:
    """An estimate of floor(x^(1/n) * 10^digits), n = 2^l, within a grid step or two.

    From a mantissa-exponent pair a * 2^e ~ x, l floor square roots take the
    root.  The working precision is sized from the root's magnitude, so the
    estimate is as good for a huge x as for a small one.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        return 0
    log2_x = num.bit_length() - den.bit_length()  # within 1 of log2(x)
    prec = max(0, log2_x // n + digits * 10 // 3) + _GUARD_BITS
    # the root steps work on 2*prec-bit integers whatever the size of x
    _check_budget(max_digits, prec, n, prec)
    shift = 2 * prec - log2_x
    a = (num << shift) // den if shift >= 0 else num // (den << -shift)
    e = -shift
    for _ in range(n.bit_length() - 1):
        # back to 2*prec bits with an even exponent, so the root keeps prec bits
        t = 2 * prec - a.bit_length()
        t += (e - t) & 1
        a = a << t if t >= 0 else a >> -t
        a, e = math.isqrt(a), (e - t) // 2
    r = a * 10 ** digits
    return r << e if e >= 0 else r >> -e


def _grid_bound(x: Fraction, n: int, digits: int, upper: bool, max_digits: int) -> Fraction:
    """The largest grid point r/10^digits with (r/10^digits)^n <= x, or with
    ``upper`` the smallest with >=, by +-1 steps from the candidate."""
    if x < 0:
        raise ValueError("negative radicand")
    _check_order(n)
    scale = 10 ** digits
    side = 1 if upper else -1

    def holds(r: int) -> bool:
        return r >= 0 and side * pow_cmp(Fraction(r, scale), n, x, max_digits) >= 0

    r = _root_candidate(x, n, digits, max_digits) + upper
    while not holds(r):
        r += side
    while holds(r - side):
        r -= side
    return Fraction(r, scale)


def nth_root_lower(x: Fraction, n: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Largest grid point r/10^digits with (r/10^digits)^n <= x, for n = 2^l.

    The true root lies in [result, result + 10^-digits).
    """
    return _grid_bound(x, n, digits, False, max_digits)


def nth_root_upper(x: Fraction, n: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Smallest grid point t/10^digits with (t/10^digits)^n >= x, for n = 2^l.

    The true root lies in (result - 10^-digits, result].
    """
    return _grid_bound(x, n, digits, True, max_digits)
