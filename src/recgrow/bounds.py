"""Bilateral growth bounds for the quadratic recursion, certified exactly.

For k, l >= 1 the sequence is sandwiched as

    b^(2^k - 1) * D(l)^(2^k)  <=  D(k+l)  <=  lower * Q(l)^(2^k - 1)

with slack factor Q(l) = 1 + a / (b * D(l)^2).  Equivalently, the ratio
b*D(k+l) / (b*D(l))^(2^k) lies in [1, Q(l)^(2^k - 1)].  Everything here is
computed and compared in exact rational arithmetic; the only rounding in the
whole module is the deliberate floor in :func:`integer_envelope`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, NonIntegerParamsError
from .recurrence import DEFAULT_CAP, Params, SequenceTable, evaluate
from .serialize import frac_str


def _check_index(table: SequenceTable, n: int, what: str) -> None:
    if not 0 <= n <= table.n_max:
        raise IndexError(f"{what}={n} outside table range 0..{table.n_max}")


def _check_l(l: int) -> None:
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")


def q_factor(params: Params, table: SequenceTable, l: int) -> Fraction:
    """Slack factor Q(l) = 1 + a/(b*D(l)^2); strictly > 1 since a > 0."""
    _check_l(l)
    _check_index(table, l, "l")
    return 1 + params.a / (params.b * table[l] ** 2)


def lower_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Pure-quadratic lower envelope b^(2^k - 1) * D(l)^(2^k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_l(l)
    _check_index(table, k + l, "k+l")
    e = 2 ** k
    return params.b ** (e - 1) * table[l] ** e


def upper_bound(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Upper envelope lower_bound * Q(l)^(2^k - 1), exact (binary exponentiation)."""
    return lower_bound(params, table, k, l) * q_factor(params, table, l) ** (2 ** k - 1)


def ratio(params: Params, table: SequenceTable, k: int, l: int) -> Fraction:
    """Normalized growth ratio b*D(k+l) / (b*D(l))^(2^k).

    k = 0 returns 1 by convention (the trivial boundary case); for k >= 1 the
    value lies in [1, Q(l)^(2^k - 1)] whenever the growth conditions hold.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_l(l)
    if k == 0:
        return Fraction(1)
    _check_index(table, k + l, "k+l")
    return params.b * table[k + l] / (params.b * table[l]) ** (2 ** k)


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


def certify(params: Params, k_max: int, l_max: int, cap: int = DEFAULT_CAP) -> list[BoundCertificate]:
    """Certificates for every (k, l) in [1..k_max] x [1..l_max], k-major order."""
    if k_max < 1 or l_max < 1:
        raise ValueError("k_max and l_max must be >= 1")
    table = evaluate(params, k_max + l_max, cap=cap)
    out = []
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):
            q = q_factor(params, table, l)
            lo = lower_bound(params, table, k, l)
            up = upper_bound(params, table, k, l)
            act = table[k + l]
            out.append(
                BoundCertificate(
                    k=k,
                    l=l,
                    q_l=q,
                    lower=lo,
                    upper=up,
                    actual=act,
                    ratio=ratio(params, table, k, l),
                    holds=lo <= act <= up,
                )
            )
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
    rows = []
    for l in ls:
        r = ratio(params, table, k, l)
        gap = q_factor(params, table, l) ** (2 ** k - 1) - 1
        rows.append((l, r - 1, gap))
    return ConvergenceProfile(k=k, rows=tuple(rows))


def integer_envelope(params: Params, table: SequenceTable, k: int, l: int) -> tuple[int, int]:
    """Integer bracket [lower, floor(upper)] around D(k+l) for integer a, b.

    Integer coefficients keep the whole orbit integral, so the upper bound
    may be floored without losing containment.
    """
    if not params.is_integer():
        raise NonIntegerParamsError(
            f"integer envelope needs integer a, b, d0; got ({frac_str(params.a)}, {frac_str(params.b)}, {frac_str(params.d0)})"
        )
    lo = lower_bound(params, table, k, l)
    up = upper_bound(params, table, k, l)
    if lo.denominator != 1:
        raise CertificateError(f"lower bound on D({k + l}) is not an integer")
    return lo.numerator, up.numerator // up.denominator
