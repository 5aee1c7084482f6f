"""Certified n-th roots on a decimal grid, of x or of a power x^m.

The primitives here return Fractions of the form r / 10^digits that bracket
an irrational root from one side (growth takes 2^l-th roots of x, and
:mod:`recgrow.general` builds its rational powers x^(m/n) on
:func:`_grid_bound`), with the defining inequality
(r/10^s)^n <= x^m or >= x^m holding *exactly*.  Each bound is also within one
grid ulp of the true root, so callers control accuracy purely through
``digits``.  Correctness never depends on floating point.  One comparison,
:func:`pow_cmp`, certifies every order: the powers of the grid point's and
of x's numerator and denominator are built by square-and-multiply, each step
rounded outward to integer brackets that decide the comparison, falling back
to exact products when they do not.  A candidate comes from a
mantissa-exponent pair of x^m: integer square roots take the power-of-two
part of n, and integer Newton at doubling precision the odd part.  Neither
x^m nor a scaled radicand x^m * 10^(digits*n) is ever formed.  Each pass of
square roots, squarings or products is checked against the ``max_digits``
budget of its call before it starts (see :func:`_check_budget`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ToleranceUnachievableError
from .recurrence import DEFAULT_MAX_DIGITS

#: Bits kept beyond the operands' own size by the candidate and the brackets.
_GUARD_BITS = 64
#: Bits of the odd-order Newton seed, found by bisection.
_SEED_BITS = 64


def _check_budget(max_digits: int, prec: int, *powers: tuple[int, int]) -> None:
    """Refuse, by ToleranceUnachievableError, a pass whose steps of about 2*prec bits build over max_digits digits."""
    # each (n, v_bits) is a power v^n by square-and-multiply of a v of at most v_bits
    # bits; a step reaching v^k builds 2*min(prec, k*v_bits) bits, 2*prec once k*v_bits >= prec
    charges = [
        2 * min(prec, k * v_bits)
        for n, v_bits in powers
        for i in range(n.bit_length() - 1)
        for k in {2 * (n >> i + 1), n >> i}  # the squaring's power, and the product's if bit i is set
    ]
    need = sum(charges) * 30103 // 100000 + 1  # decimal digits of that many bits
    if need > max_digits:
        raise ToleranceUnachievableError(
            f"{len(charges)} squarings and products at {prec}-bit precision need {need} digits, "
            f"over the {max_digits}-digit budget"
        )


def _pow_bracket(v: int, n: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= v^n <= hi * 2^e, for v >= 0 and n >= 1.

    Square-and-multiply over the bits of n.  Each step is cut back to about
    ``prec`` bits, by a floor shift for lo and a ceiling shift for hi, so
    lo == hi exactly when no step was rounded.
    """
    lo = hi = v
    e = 0
    for bit in bin(n)[3:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = lo * v, hi * v
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


def pow_cmp(base: Fraction, n: int, x: Fraction, m: int = 1, max_digits: int = DEFAULT_MAX_DIGITS) -> int:
    """sign(base^n - x^m) for base, x >= 0 and n, m >= 1, forming neither power.

    With base = p/q and x = X/Y this is the sign of p^n*Y^m - q^n*X^m.  All
    four powers are bracketed by :func:`_pow_bracket` and the brackets are
    cross-multiplied.  While they overlap the precision doubles, up to the
    size of the largest exact power, where no step rounds, so equality is
    decided too, unless a pass would build over ``max_digits`` digits.
    """
    p, q = base.numerator, base.denominator
    big_x, big_y = x.numerator, x.denominator
    base_bits = max(p.bit_length(), q.bit_length())
    x_bits = max(big_x.bit_length(), big_y.bit_length())
    prec = base_bits + _GUARD_BITS
    # no step rounds once prec reaches the bit length of the largest power
    exact_prec = max(n * base_bits, m * x_bits)
    while True:
        _check_budget(max_digits, prec, (n, base_bits), (m, x_bits))
        p_lo, p_hi, ep = _pow_bracket(p, n, prec)
        q_lo, q_hi, eq = _pow_bracket(q, n, prec)
        x_lo, x_hi, ex = _pow_bracket(big_x, m, prec)
        y_lo, y_hi, ey = _pow_bracket(big_y, m, prec)
        if _cmp_scaled(p_hi * y_hi, ep + ey, q_lo * x_lo, eq + ex) < 0:
            return -1
        if _cmp_scaled(p_lo * y_lo, ep + ey, q_hi * x_hi, eq + ex) > 0:
            return 1
        if p_lo == p_hi and q_lo == q_hi and x_lo == x_hi and y_lo == y_hi:
            return 0
        prec = min(2 * prec, exact_prec)


def _odd_root(a: int, e: int, o: int, prec: int) -> tuple[int, int]:
    """(r, f) with r * 2^f ~ (a * 2^e)^(1/o) and r of about prec bits, for a > 0.

    At working precision w the root is r * 2^f with f = top - w, where
    top = floor(log2(a * 2^e) / o), so r lies in [2^(w-1), 2^(w+1)).  A
    _SEED_BITS-bit r comes from bisection; then w doubles, with integer Newton
    steps r <- ((o-1)*r + B / r^(o-1)) / o on B = a * 2^(e - f*o) at each w,
    the power r^(o-1) rounded to w + _GUARD_BITS bits by :func:`_pow_bracket`.
    """
    top = (a.bit_length() + e) // o
    w = _SEED_BITS
    f = top - w
    r, hi = 1 << (w - 1), 1 << (w + 1)
    while hi - r > 1:
        mid = (r + hi) >> 1
        p, _, ep = _pow_bracket(mid, o, 2 * w)
        if _cmp_scaled(p, ep + f * o, a, e) <= 0:
            r = mid
        else:
            hi = mid
    while True:
        while True:
            p, _, ep = _pow_bracket(r, o - 1, w + _GUARD_BITS)
            s = e - f * o - ep
            step = ((o - 1) * r + ((a << s) if s >= 0 else (a >> -s)) // p) // o - r
            r += step
            if abs(step) <= 2:
                break
        if w >= prec:
            return r, f
        grow = min(w, prec - w)
        w, f, r = w + grow, f - grow, r << grow


def _root_candidate(x: Fraction, n: int, digits: int, m: int, max_digits: int) -> int:
    """An estimate of floor(x^(m/n) * 10^digits), within a grid step or two.

    From a mantissa-exponent pair a * 2^e ~ x^m, l floor square roots take
    the power-of-two part 2^l of n and :func:`_odd_root` the odd part.  The
    working precision is sized from the root's magnitude, so the estimate is
    as good for a huge x as for a small one.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        return 0
    l = (n & -n).bit_length() - 1
    num_lo, _, e_num = _pow_bracket(num, m, _GUARD_BITS)
    den_lo, _, e_den = _pow_bracket(den, m, _GUARD_BITS)
    log2_x = num_lo.bit_length() + e_num - den_lo.bit_length() - e_den  # within 2 of log2(x^m)
    prec = max(0, log2_x // n + digits * 10 // 3) + _GUARD_BITS
    # the root steps work on 2*prec-bit integers whatever the size of x^m
    _check_budget(max_digits, prec, (n, prec), (m, max(num.bit_length(), den.bit_length())))
    num, _, e_num = _pow_bracket(num, m, 2 * prec)
    den, _, e_den = _pow_bracket(den, m, 2 * prec)
    shift = 2 * prec - num.bit_length() + den.bit_length()
    a = (num << shift) // den if shift >= 0 else num // (den << -shift)
    e = e_num - e_den - shift
    for _ in range(l):
        # back to 2*prec bits with an even exponent, so the root keeps prec bits
        t = 2 * prec - a.bit_length()
        t += (e - t) & 1
        a = a << t if t >= 0 else a >> -t
        a, e = math.isqrt(a), (e - t) // 2
    if n >> l > 1:
        a, e = _odd_root(a, e, n >> l, prec)
    r = a * 10 ** digits
    return r << e if e >= 0 else r >> -e


def _grid_bound(x: Fraction, n: int, digits: int, m: int, upper: bool, max_digits: int) -> Fraction:
    """The largest grid point r/10^digits with (r/10^digits)^n <= x^m, or with
    ``upper`` the smallest with >=, by +-1 steps from the candidate."""
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")
    scale = 10 ** digits
    side = 1 if upper else -1

    def holds(r: int) -> bool:
        return r >= 0 and side * pow_cmp(Fraction(r, scale), n, x, m, max_digits) >= 0

    r = _root_candidate(x, n, digits, m, max_digits) + upper
    while not holds(r):
        r += side
    while holds(r - side):
        r -= side
    return Fraction(r, scale)


def nth_root_lower(x: Fraction, n: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Largest grid point r/10^digits with (r/10^digits)^n <= x.

    The true root lies in [result, result + 10^-digits).
    """
    return _grid_bound(x, n, digits, 1, False, max_digits)


def nth_root_upper(x: Fraction, n: int, digits: int, max_digits: int = DEFAULT_MAX_DIGITS) -> Fraction:
    """Smallest grid point t/10^digits with (t/10^digits)^n >= x.

    The true root lies in (result - 10^-digits, result].
    """
    return _grid_bound(x, n, digits, 1, True, max_digits)
