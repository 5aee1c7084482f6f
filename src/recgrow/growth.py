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

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, CertificateError, ToleranceUnachievableError
from .recurrence import DEFAULT_CAP, Params, SequenceTable, evaluate
from .bounds import q_factor
from .roots import DEFAULT_MAX_DIGITS, digit_budget, digits_for, nth_root_lower, nth_root_upper, pow_cmp
from .serialize import frac_str

#: Finest relative tolerance the enclosure contract accepts.
MIN_RTOL = Fraction(1, 10 ** 30)


def _as_tolerance(rtol) -> Fraction:
    # floats are fine for tolerances (unlike coefficients): the binary value
    # they denote is used exactly
    return Fraction(rtol)


@dataclass(frozen=True)
class GrowthEnclosure:
    """Certified decimal interval [c_lo, c_hi] containing the growth constant.

    Endpoints live on the 10^-digits grid and satisfy, exactly,
    c_lo^(2^l) <= b*D(l) and c_hi^(2^l) >= b*D(l)*Q(l).
    """

    l: int
    c_lo: Fraction
    c_hi: Fraction
    digits: int

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
    rt = _as_tolerance(rtol)
    if not MIN_RTOL <= rt < 1:
        raise ValueError(f"rtol must lie in [{MIN_RTOL}, 1), got {frac_str(rt)}")
    table = evaluate(params, l, cap=cap)
    m = 2 ** l
    x_lo = params.b * table[l]
    q = q_factor(params, table, l)
    x_hi = x_lo * q

    with digit_budget(max_digits):
        # coarse pass only to learn the root's magnitude
        s0 = 8
        c0 = nth_root_lower(x_lo, m, s0)
        while c0 == 0:
            s0 *= 2
            c0 = nth_root_lower(x_lo, m, s0)
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


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def _ln_fraction(x: Fraction, prec: int):
    """ln(x) as an mpf at ~prec bits, via bit-length decomposition.

    Huge integers never reach the transcendental code: each one contributes
    (bits-1)*ln2 plus the log of a mantissa in [1, 2).
    """
    # mpmath is imported only by the log diagnostics, to keep it off the CLI's import path
    from mpmath import log as _mp_log, mp, mpf

    def ln_int(n: int):
        shift = n.bit_length() - 1
        drop = max(0, shift - prec)
        mant = mpf(n >> drop) / mpf(1 << (shift - drop))
        return shift * mp.ln2 + _mp_log(mant)

    return ln_int(x.numerator) - ln_int(x.denominator)


def log_log_index(table: SequenceTable, n: int, rtol) -> Fraction:
    """log2(ln(b*D(n))) / n with relative error <= rtol.

    Tends to 1 as n grows (deviation ~ |log2(ln C)| / n).  Evaluated at
    escalating precision until two consecutive passes agree within rtol/2;
    the returned Fraction is the exact value of the final binary float.
    """
    if not 1 <= n <= table.n_max:
        raise IndexError(f"n={n} outside table range 1..{table.n_max}")
    rt = _as_tolerance(rtol)
    if rt <= 0:
        raise ValueError("rtol must be positive")
    x = table.params.b * table[n]
    if x <= 1:
        raise ValueError(f"b*D(n) must exceed 1 for the double log, got {frac_str(x)}")

    from mpmath import log as _mp_log, mp

    def one_pass(prec: int) -> Fraction:
        with mp.workprec(prec):
            y = _ln_fraction(x, prec)
            r = _mp_log(y) / mp.ln2 / n
        return _mpf_to_fraction(r)

    prec = 80
    prev = one_pass(prec)
    while prec <= 1 << 22:
        prec *= 2
        cur = one_pass(prec)
        if abs(cur - prev) <= rt * abs(cur) / 2:
            return cur
        prev = cur
    raise ToleranceUnachievableError(f"log-log index did not stabilize to rtol={frac_str(rt)}")


def doubling_benchmark(n: int, cap: int = DEFAULT_CAP) -> int:
    """Comparison sequence 2^(2^(n-1)) for n >= 1, with the n = 0 value
    pinned to 1 by convention (the closed form would give sqrt(2))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds cap={cap}")
    if n == 0:
        return 1
    return 2 ** (2 ** (n - 1))


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    value: Fraction
    benchmark: int
    dominates: bool


def compare_to_benchmark(params: Params, n_max: int, cap: int = DEFAULT_CAP) -> list[BenchmarkRow]:
    """Rows (n, D(n), 2^(2^(n-1)), D(n) >= benchmark) for n = 0..n_max.

    Asserted regime: integer a >= 1, b >= 1 and seed >= 1, where domination
    follows by induction from D(n+1) >= D(n)^2.
    """
    if (
        params.a.denominator != 1
        or params.b.denominator != 1
        or params.a < 1
        or params.b < 1
        or params.d0 < 1
    ):
        raise ValueError(
            f"benchmark comparison needs integer a, b >= 1 and d0 >= 1; "
            f"got ({frac_str(params.a)}, {frac_str(params.b)}, {frac_str(params.d0)})"
        )
    table = evaluate(params, n_max, cap=cap)
    rows = []
    for n in range(n_max + 1):
        mark = doubling_benchmark(n, cap=cap)
        rows.append(BenchmarkRow(n, table[n], mark, table[n] >= mark))
    return rows
