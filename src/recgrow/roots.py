"""Certified n-th roots and rational powers on a decimal grid.

The primitives here return Fractions of the form r / 10^digits that bracket
an irrational root from one side, with the defining inequality (r/10^s)^n <= x
or >= x holding *exactly*.  Each bound is also within one grid ulp of the true
root, so callers control accuracy purely through ``digits``.  Correctness
never depends on floating point.  For n = 2^l a candidate comes from l integer
square roots of a mantissa-exponent pair, and :func:`pow2_cmp` certifies it:
the l squarings of its numerator and denominator are rounded outward to
integer brackets that decide the comparison with x, falling back to exact
squarings when they do not.  Inside :func:`digit_budget` each pass of l
square roots or squarings is checked against a digit budget before it starts.
Other orders take floor/ceiling integer Newton roots of the exactly scaled
radicand x * 10^(digits*n).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import ToleranceUnachievableError


def floor_pow2_root(x: int, l: int) -> int:
    """floor(x^(1/2^l)) for x >= 0.

    Repeated floor-sqrt composes exactly: floor(sqrt(floor(sqrt(x)))) equals
    floor(x^(1/4)), and so on.
    """
    if x < 0:
        raise ValueError("negative radicand")
    for _ in range(l):
        x = math.isqrt(x)
    return x


def floor_nth_root(x: int, n: int) -> int:
    """Largest r with r^n <= x, for x >= 0, n >= 1.

    Integer Newton iteration, then clamped; the final adjustment loops make
    the result exact regardless of how the iteration landed.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")
    if n == 1 or x in (0, 1):
        return x
    if n & (n - 1) == 0:
        return floor_pow2_root(x, n.bit_length() - 1)
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) >= true root
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def ceil_nth_root(x: int, n: int) -> int:
    """Smallest r with r^n >= x, for x >= 0, n >= 1."""
    r = floor_nth_root(x, n)
    return r if r ** n == x else r + 1


#: Bits kept beyond the operands' own size by the candidate and the brackets.
_GUARD_BITS = 64

#: Decimal digits that one pass of l square roots or l squarings may build, or None.
#: A context variable, so the budget reaches pow2_cmp through the three-argument
#: nth_root_lower/nth_root_upper and stays local to the block that set it.
_MAX_DIGITS: ContextVar = ContextVar("max_digits", default=None)


@contextmanager
def digit_budget(max_digits: int):
    """Within the block, a 2^l-th root or power comparison raises
    ToleranceUnachievableError instead of starting a pass whose l square roots
    or squarings of about 2*prec-bit integers would build more than max_digits
    decimal digits in all."""
    token = _MAX_DIGITS.set(max_digits)
    try:
        yield
    finally:
        _MAX_DIGITS.reset(token)


def _check_budget(l: int, prec: int) -> None:
    max_digits = _MAX_DIGITS.get()
    need = 2 * l * prec * 30103 // 100000 + 1  # decimal digits of 2*l*prec bits
    if max_digits is not None and need > max_digits:
        raise ToleranceUnachievableError(
            f"2^{l}-th root or power at {prec}-bit precision needs {need} digits of squarings, "
            f"over the {max_digits}-digit budget"
        )


def _pow2_bracket(v: int, l: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= v^(2^l) <= hi * 2^e, for v >= 0.

    Each of the l squarings is cut back to about ``prec`` bits, by a floor
    shift for lo and a ceiling shift for hi, so lo == hi exactly when no
    squaring was rounded.
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


def pow2_cmp(base: Fraction, l: int, x: Fraction) -> int:
    """sign(base^(2^l) - x) for base, x >= 0, without forming base^(2^l).

    With base = p/q and x = X/Y this is the sign of p^(2^l)*Y - q^(2^l)*X.
    Both powers are bracketed by :func:`_pow2_bracket` and the brackets are
    cross-multiplied with X and Y.  While they overlap the precision doubles;
    it ends exact once no squaring rounds, so equality is decided too.
    """
    p, q = base.numerator, base.denominator
    big_x, big_y = x.numerator, x.denominator
    prec = max(p.bit_length(), q.bit_length()) + _GUARD_BITS
    while True:
        _check_budget(l, prec)
        p_lo, p_hi, ep = _pow2_bracket(p, l, prec)
        q_lo, q_hi, eq = _pow2_bracket(q, l, prec)
        if _cmp_scaled(p_hi * big_y, ep, q_lo * big_x, eq) < 0:
            return -1
        if _cmp_scaled(p_lo * big_y, ep, q_hi * big_x, eq) > 0:
            return 1
        if p_lo == p_hi and q_lo == q_hi:
            return 0
        prec *= 2


def _pow2_root_candidate(x: Fraction, l: int, digits: int) -> int:
    """An estimate of floor(x^(1/2^l) * 10^digits), within a grid step or two.

    l floor square roots of a mantissa-exponent pair m * 2^e ~ x.  The working
    precision is sized from the root's magnitude, so the estimate is as good
    for a huge x as for a small one.
    """
    num, den = x.numerator, x.denominator
    log2_x = num.bit_length() - den.bit_length()  # within 1 of log2(x)
    prec = max(0, (log2_x >> l) + digits * 10 // 3) + _GUARD_BITS
    _check_budget(l, prec)
    shift = 2 * prec - log2_x
    m = (num << shift) // den if shift >= 0 else num // (den << -shift)
    e = -shift
    for _ in range(l):
        # back to 2*prec bits with an even exponent, so the root keeps prec bits
        t = 2 * prec - m.bit_length()
        t += (e - t) & 1
        m = m << t if t >= 0 else m >> -t
        m, e = math.isqrt(m), (e - t) // 2
    r = m * 10 ** digits
    return r << e if e >= 0 else r >> -e


def _check_root_args(x: Fraction, n: int) -> None:
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")


def nth_root_lower(x: Fraction, n: int, digits: int) -> Fraction:
    """Largest grid point r/10^digits with (r/10^digits)^n <= x.

    The true root lies in [result, result + 10^-digits).
    """
    _check_root_args(x, n)
    scale = 10 ** digits
    if n & (n - 1):
        scaled = (x.numerator * scale ** n) // x.denominator
        return Fraction(floor_nth_root(scaled, n), scale)
    l = n.bit_length() - 1
    r = _pow2_root_candidate(x, l, digits)
    while r > 0 and pow2_cmp(Fraction(r, scale), l, x) > 0:
        r -= 1
    while pow2_cmp(Fraction(r + 1, scale), l, x) <= 0:
        r += 1
    return Fraction(r, scale)


def nth_root_upper(x: Fraction, n: int, digits: int) -> Fraction:
    """Smallest grid point t/10^digits with (t/10^digits)^n >= x.

    The true root lies in (result - 10^-digits, result].
    """
    _check_root_args(x, n)
    scale = 10 ** digits
    if n & (n - 1):
        num = x.numerator * scale ** n
        scaled = -((-num) // x.denominator)  # ceil division
        return Fraction(ceil_nth_root(scaled, n), scale)
    l = n.bit_length() - 1
    t = _pow2_root_candidate(x, l, digits) + 1
    while pow2_cmp(Fraction(t, scale), l, x) < 0:
        t += 1
    while t > 0 and pow2_cmp(Fraction(t - 1, scale), l, x) >= 0:
        t -= 1
    return Fraction(t, scale)


def pow_lower(x: Fraction, exponent: Fraction, digits: int) -> Fraction:
    """Certified lower bound for x^exponent, x >= 0, exponent >= 0.

    Exact (not rounded) when the exponent is an integer; otherwise the bound
    sits on the 10^-digits grid via x^(u/v) = (x^u)^(1/v).
    """
    if exponent < 0:
        raise ValueError("negative exponents not supported")
    if exponent.denominator == 1:
        return x ** int(exponent)
    return nth_root_lower(x ** exponent.numerator, exponent.denominator, digits)


def pow_upper(x: Fraction, exponent: Fraction, digits: int) -> Fraction:
    """Certified upper bound for x^exponent; exact for integer exponents."""
    if exponent < 0:
        raise ValueError("negative exponents not supported")
    if exponent.denominator == 1:
        return x ** int(exponent)
    return nth_root_upper(x ** exponent.numerator, exponent.denominator, digits)


def digits_for(target: Fraction) -> int:
    """Smallest s >= 0 with 10^-s <= target (target > 0).

    Bit-length estimate first, then exact adjustment, so the answer is
    correct even when the estimate is off by one.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    if target >= 1:
        return 0
    inv = 1 / target
    s = max(0, int((inv.numerator.bit_length() - inv.denominator.bit_length()) * 0.30103) - 1)
    while Fraction(1, 10 ** s) > target:
        s += 1
    while s > 0 and Fraction(1, 10 ** (s - 1)) <= target:
        s -= 1
    return s
