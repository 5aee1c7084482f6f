"""Bilateral growth bounds for the quadratic recursion, certified exactly.

For k, l >= 1 and slack factor Q(l) = 1 + a / (b * D(l)^2) the sequence obeys

    b^(2^k - 1) * D(l)^(2^k)  <=  D(k+l)  <=  lower * Q(l)^(2^k - 1),

so the ratio b*D(k+l) / (b*D(l))^(2^k) lies in [1, Q(l)^(2^k - 1)].  With the small
bases P = b*D(l) and R = P*Q(l), lower = P^(2^k)/b, upper = R^(2^k)/(b*Q(l)) and
ratio = D(k+l)/lower: raising k squares each power, a power of a reduced fraction
needs no gcd, and no gcd pairs two huge operands.  All exact but :func:`integer_envelope`'s floor.

:func:`certify`, :func:`convergence_profile` and :func:`compare_to_benchmark` are the
exact references of the ``bounds``, ``converge`` and ``benchmark`` subcommands: those
print values that :mod:`recgrow.twins` builds on its own, and no CLI path loads this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CertificateError, NonIntegerParamsError
from .pairs import _cancel, _fraction
from .recurrence import (
    DEFAULT_CAP,
    Params,
    SequenceTable,
    check_benchmark_regime,
    check_cap,
    evaluate,
    q_factor,
)
from .serialize import frac_str


def _check(table: SequenceTable, k: int, l: int, k_min: int = 1) -> None:
    if k < k_min or l < 1:
        raise ValueError(f"need k >= {k_min} and l >= 1, got k={k}, l={l}")
    if k + l > table.n_max:
        raise IndexError(f"index {k + l} outside table range 0..{table.n_max}")


class BoundCertificate(namedtuple("BoundCertificate", "k l q_l lower upper actual ratio holds")):
    """One exactly checked instance of the bilateral bound at a (k, l) pair."""

    __slots__ = ()


class ConvergenceProfile(namedtuple("ConvergenceProfile", "k rows")):
    """Rows (l, ratio - 1, Q(l)^(2^k - 1) - 1) for fixed k, ordered by l."""

    __slots__ = ()


def _ratio(b: Fraction, d: Fraction, act: Fraction, lo: Fraction) -> Fraction:
    """act / lo in lowest terms, for lo = b^(2^k-1) * d^(2^k) and act = D(k+l)."""
    # the primes of lo's numerator divide b_n*d_n, those of its denominator b_d*d_d
    xn, yn = _cancel(act.numerator, lo.numerator, b.numerator * d.numerator)
    xd, yd = _cancel(act.denominator, lo.denominator, b.denominator * d.denominator)
    return _fraction((xn * yd, xd * yn)) if yn > 0 else act / lo  # yn < 0 only for b < 0


def _certificate(params: Params, table: SequenceTable, k: int, l: int, p_pow: Fraction, r_pow: Fraction) -> BoundCertificate:
    """The certificate at (k, l) from p_pow = P^(2^k) and r_pow = R^(2^k)."""
    b, act, q = params.b, table[k + l], q_factor(params, table, l)
    lo, up = p_pow / b, r_pow / (b * q)
    return BoundCertificate(k, l, q, lo, up, act, _ratio(b, table[l], act, lo), lo <= act <= up)


def lower_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Pure-quadratic lower envelope b^(2^k - 1) * D(l)^(2^k) = P^(2^k)/b."""
    _check(table, k, l)
    return (params.b * table[l]) ** (2 ** k) / params.b


def upper_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Upper envelope lower_bound * Q(l)^(2^k - 1) = R^(2^k)/(b*Q(l)), exact."""
    _check(table, k, l)
    bq = params.b * q_factor(params, table, l)
    return (table[l] * bq) ** (2 ** k) / bq


def ratio(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Normalized growth ratio b*D(k+l) / (b*D(l))^(2^k).

    k = 0 returns 1 by convention (the trivial boundary case); for k >= 1 the
    value lies in [1, Q(l)^(2^k - 1)] whenever the growth conditions hold.
    """
    _check(table, k, l, k_min=0)
    if k == 0:
        return Fraction(1)
    return _ratio(params.b, table[l], table[k + l], lower_bound(params, table, k, l))


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
    rows = ((l, ratio(params, table, k, l) - 1, q_factor(params, table, l) ** (2 ** k - 1) - 1) for l in ls)
    return ConvergenceProfile(k=k, rows=tuple(rows))


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
