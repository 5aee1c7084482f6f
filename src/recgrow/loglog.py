"""The rounded passes behind :func:`~recgrow.growth.log_log_index`.

Each pass replays, in ints, what mpmath computes for log2(ln x) / n at a given binary precision: every
step is rounded to nearest at that precision, each ln by an interval test that proves the rounding.
``log_log_index`` imports this module only when it runs, so a ``growth`` run without ``--loglog-n``
never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


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


def _ln_fixed(y: int, w: int) -> tuple[int, int]:
    """(v, err) with |v - 2^w ln(y/2^w)| < err, for 2^w <= y <= 2^(w+1): ln in fixed point at w bits.

    r >= 1 square roots (w >= 64) take y to y_r = y^(1/2^r) = e^s, and ln y = 2^r s = 2^(r+1) atanh z for
    z = (y_r-1)/(y_r+1) = tanh(s/2), where 0 <= z <= s/2 < 2^-(r+1) <= 1/4 (Brent and Zimmermann, Modern
    Computer Arithmetic, 4.2 and 4.4).  Errors against the exact values, in units u = 2^-w:
    - each y_i: under 2u.  Both are >= 1, where sqrt at most halves a difference; isqrt floors by under u.
    - z: under 2u.  (t-1)/(t+1) has slope 2/(t+1)^2 <= 1/2 for t >= 1; the floor adds under u.
    - z^2: under 3u.  |Z^2 - z^2| = |Z - z|(Z + z) < 2u(2z + 2u) <= 2u; the shift adds under u.
    - each term z^(2j+1): under 2u.  A step multiplies by z^2 + 3u < 1/16 + 3u and floors, so
      2u(1/16 + 3u) + 3u/4 + u < 2u as w >= 6.  The division by 2j+1 leaves under 2u + u.
    - the tail after the first zero term, where z^(2N+1) < 2u: under 2u(1 + 1/16 + ...) < 3u.
    The series misses atanh z by under 3(N+1)u, so ln y is missed by under 2^(r+1) times that.
    """
    one, r = 1 << w, isqrt(w) // 3
    for _ in range(r):
        y = isqrt(y << w)
    z = ((y - one) << w) // (y + one)
    z2 = z * z >> w
    s = n = 0
    while z:
        s += z // (2 * n + 1)
        z = z * z2 >> w
        n += 1
    return s << (r + 1), 3 * (n + 1) << (r + 1)


def _ln(m: int, e: int, prec: int) -> tuple[int, int]:
    """ln(m*2^e), m > 0, rounded to prec bits, to nearest with ties to even; (0, 0) for ln 1.

    ln(m*2^e) = k ln 2 + ln y for 2^h <= m < 2^(h+1), y = m/2^h and k = h + e, each by _ln_fixed at w bits.
    Ziv's test: if both ends of the error interval round alike (so share a sign), monotone rounding gives
    the value inside the same; else w doubles, until it does: a nonzero ln of a rational is transcendental
    (Lindemann), never a midpoint.
    """
    h = m.bit_length() - 1
    k = h + e
    if m == 1 << h and not k:
        return 0, 0
    w = prec + isqrt(prec) + 64
    while True:
        v, err = _ln_fixed((m << w) >> h, w) if m != 1 << h else (0, 0)
        err += 1  # y*2^w is floored, which lowers ln y by under one unit as y >= 1
        if k:
            ln2, err2 = _ln_fixed(2 << w, w)
            v, err = v + k * ln2, err + abs(k) * err2
        lo = _round(v - err, 1, prec, -w)
        if lo == _round(v + err, 1, prec, -w):
            return lo
        w *= 2


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
