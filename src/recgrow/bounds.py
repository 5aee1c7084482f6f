"""Bilateral growth bounds for the quadratic recursion, certified exactly.

For k, l >= 1 and slack factor Q(l) = 1 + a / (b * D(l)^2) the sequence obeys

    b^(2^k - 1) * D(l)^(2^k)  <=  D(k+l)  <=  lower * Q(l)^(2^k - 1),

so the ratio b*D(k+l) / (b*D(l))^(2^k) lies in [1, Q(l)^(2^k - 1)].  With the small
bases P = b*D(l) and R = P*Q(l), lower = P^(2^k)/b, upper = R^(2^k)/(b*Q(l)) and
ratio = D(k+l)/lower: raising k squares each power, a power of a reduced fraction
needs no gcd, and no gcd pairs two huge operands.  All exact but :func:`integer_envelope`'s floor.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, NonIntegerParamsError
from .recurrence import DEFAULT_CAP, Params, SequenceTable, evaluate
from .serialize import frac_str


#: n/d with gcd(n, d) = 1 and d > 0; Fraction() takes a Rational's lowest terms without a gcd
_LowestTerms = numbers.Rational.register(namedtuple("_LowestTerms", "numerator denominator"))


def _check(table: SequenceTable, k: int, l: int, k_min: int = 1) -> None:
    if k < k_min or l < 1:
        raise ValueError(f"need k >= {k_min} and l >= 1, got k={k}, l={l}")
    if k + l > table.n_max:
        raise IndexError(f"index {k + l} outside table range 0..{table.n_max}")


def _cancel(x: int, y: int, w: int) -> tuple[int, int]:
    """x, y over their gcd, where every prime of y divides the small w: only primes of
    gcd(x, w) can be shared, so small gcds find them and none runs on x and y together."""
    c = math.gcd(math.gcd(x, w), y)
    while c > 1:
        x, y = x // c, y // c
        c = math.gcd(math.gcd(x, c * c), y)
    return x, y


def q_factor(params: Params, table: SequenceTable, l: int) -> Fraction:
    """Slack factor Q(l) = 1 + a/(b*D(l)^2); strictly > 1 since a > 0."""
    _check(table, 0, l, k_min=0)
    return 1 + params.a / (params.b * table[l] ** 2)


@dataclass(frozen=True)
class BoundCertificate:
    """One exactly checked instance of the bilateral bound at a (k, l) pair."""

    k: int
    l: int
    q_l: Fraction
    lower: Fraction
    upper: Fraction
    actual: Fraction
    ratio: Fraction
    holds: bool


@dataclass(frozen=True)
class ConvergenceProfile:
    """Rows (l, ratio - 1, Q(l)^(2^k - 1) - 1) for fixed k, ordered by l."""

    k: int
    rows: tuple[tuple[int, Fraction, Fraction], ...]


def _certificate(params: Params, table: SequenceTable, k: int, l: int, p_pow: Fraction, r_pow: Fraction) -> BoundCertificate:
    """The certificate at (k, l) from p_pow = P^(2^k) and r_pow = R^(2^k)."""
    b, d, act, q = params.b, table[l], table[k + l], q_factor(params, table, l)
    lo, up = p_pow / b, r_pow / (b * q)
    # lo = b^(2^k-1) * d^(2^k), so the primes of its numerator divide b_n*d_n, those of its denominator b_d*d_d
    xn, yn = _cancel(act.numerator, lo.numerator, b.numerator * d.numerator)
    xd, yd = _cancel(act.denominator, lo.denominator, b.denominator * d.denominator)
    rat = Fraction(_LowestTerms(xn * yd, xd * yn)) if yn > 0 else act / lo  # yn < 0 only for b < 0
    return BoundCertificate(k, l, q, lo, up, act, rat, lo <= act <= up)


def _at(params: Params, table: SequenceTable, k: int, l: int) -> BoundCertificate:
    _check(table, k, l)
    p = params.b * table[l]
    return _certificate(params, table, k, l, p ** (2 ** k), (p * q_factor(params, table, l)) ** (2 ** k))


def lower_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Pure-quadratic lower envelope b^(2^k - 1) * D(l)^(2^k)."""
    return _at(params, table, k, l).lower


def upper_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Upper envelope lower_bound * Q(l)^(2^k - 1), exact."""
    return _at(params, table, k, l).upper


def ratio(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Normalized growth ratio b*D(k+l) / (b*D(l))^(2^k).

    k = 0 returns 1 by convention (the trivial boundary case); for k >= 1 the
    value lies in [1, Q(l)^(2^k - 1)] whenever the growth conditions hold.
    """
    _check(table, k, l, k_min=0)
    return Fraction(1) if k == 0 else _at(params, table, k, l).ratio


def certify(params: Params, k_max: int, l_max: int, cap: int = DEFAULT_CAP) -> list[BoundCertificate]:
    """Certificates for every (k, l) in [1..k_max] x [1..l_max], k-major order."""
    if k_max < 1 or l_max < 1:
        raise ValueError("k_max and l_max must be >= 1")
    table = evaluate(params, k_max + l_max, cap=cap)
    powers = [(params.b * table[l], params.b * table[l] * q_factor(params, table, l)) for l in range(1, l_max + 1)]
    out = []
    for k in range(1, k_max + 1):
        powers = [(p ** 2, r ** 2) for p, r in powers]
        out += [_certificate(params, table, k, l, p, r) for l, (p, r) in enumerate(powers, 1)]
    return out


def convergence_profile(params: Params, k: int, l_values, cap: int = DEFAULT_CAP) -> ConvergenceProfile:
    """Track ratio - 1 against its envelope gap Q(l)^(2^k - 1) - 1 over l.

    The gap column decays to 0 as l grows; this is the checkable form of the
    normalized ratio tending to 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ls = sorted(set(int(l) for l in l_values))
    if not ls or ls[0] < 1:
        raise ValueError("l values must be a nonempty collection of integers >= 1")
    table = evaluate(params, k + ls[-1], cap=cap)
    certs = (_at(params, table, k, l) for l in ls)
    return ConvergenceProfile(k=k, rows=tuple((c.l, c.ratio - 1, c.q_l ** (2 ** k - 1) - 1) for c in certs))


def integer_envelope(params: Params, table: SequenceTable, k: int, l: int) -> tuple[int, int]:
    """Integer bracket [lower, floor(upper)] around D(k+l) for integer a, b.

    Integer coefficients keep the whole orbit integral, so the upper bound
    (b*D(l)^2 + a)^(2^k - 1) / D(l)^(2^k - 2) may be floored without loss.
    """
    if not params.is_integer():
        abd = ", ".join(map(frac_str, (params.a, params.b, params.d0)))
        raise NonIntegerParamsError(f"integer envelope needs integer a, b, d0; got ({abd})")
    lo, up = lower_bound(params, table, k, l), upper_bound(params, table, k, l)
    if lo.denominator != 1:
        raise CertificateError(f"lower bound on D({k + l}) is not an integer")
    return lo.numerator, up.numerator // up.denominator
