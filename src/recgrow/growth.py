"""Certified enclosure of the doubly-exponential growth constant.

Raising the bilateral bound to the 2^(k+l)-th root and letting k grow shows
that C = lim (b*D(n))^(1/2^n) exists and satisfies, for every witness index l,

    (b*D(l))^(1/2^l)  <=  C  <=  (b*D(l)*Q(l))^(1/2^l).

:func:`growth_enclosure` turns one such bracket into decimal endpoints with
outward rounding, so the reported interval still provably contains C.  Each
endpoint's 2^l-th power is compared with the bracket by
:func:`~recgrow.roots.pow_cmp` (outward-rounded integer squarings with an
exact fallback), so the check never forms a 2^l x digits number.  b*D(n) grows like
C^(2^n), i.e. log2(ln(b*D(n)))/n -> 1, which :func:`log_log_index` tracks
by the passes of :mod:`recgrow.loglog`, imported only when it runs.

From the parsed options to the printed text, ``growth`` holds every exact value as a lowest-terms
int pair ``(num, den)`` (:func:`_enclosure`, :func:`_log_log_index`), so a run loads neither
:mod:`fractions` nor :mod:`decimal`.  :func:`growth_enclosure` and :func:`log_log_index` are the
library's edges over that core: they take and return Fractions.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CertificateError, InvalidParamsError, ToleranceUnachievableError
from .pairs import _cancel, _fraction, _orbit, _radicands, as_pair, check_params
from .recurrence import DEFAULT_CAP, DEFAULT_MAX_DIGITS, Params, SequenceTable, check_cap
from .roots import _ceil_point, _floor_point, _grid_pair, pow_cmp
from .report import Report, _params_dict
from .serialize import fixed_str, pair_str

#: Finest relative tolerance the enclosure contract accepts, as a pair.
MIN_RTOL = (1, 10 ** 30)

#: log10(2), rounded down to 20 decimals
_LOG10_2 = (30102999566398119521, 10 ** 20)


class GrowthEnclosure(namedtuple("GrowthEnclosure", "l c_lo c_hi digits")):
    """Certified decimal interval [c_lo, c_hi] containing the growth constant.

    Endpoints live on the 10^-digits grid and satisfy, exactly,
    c_lo^(2^l) <= b*D(l) and c_hi^(2^l) >= b*D(l)*Q(l).
    """

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.c_hi - self.c_lo


def digits_for(target) -> int:
    """Smallest s >= 0 with 10^-s <= target, for a target > 0 given as a pair or a Fraction."""
    num, den = as_pair(target)
    if num <= 0:
        raise ValueError("target must be positive")
    if num >= den:
        return 0
    # s is the least with 10^s * num >= den.  den/num lies in (2^(k-1), 2^(k+1)) for the k below, so with
    # F = floor((k-1)*log10(2)), s is F + 1 or F + 2, as 2*log10(2) < 1.  The start is F + 1, or F where
    # (k-1)*log10(2) lies within (k-1)*10^-20 above an integer; each step is one exact comparison
    k = den.bit_length() - num.bit_length()
    s = (k - 1) * _LOG10_2[0] // _LOG10_2[1] + 1
    while 10 ** s * num < den:
        s += 1
    return s


def _enclosure(a: tuple, b: tuple, d0: tuple, l: int, rtol, cap: int, max_digits: int) -> tuple[int, int, int]:
    """(r, t, s) with [r/10^s, t/10^s] the enclosure of :func:`growth_enclosure`, for the pairs a, b, d0."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    # floats are fine for tolerances (unlike coefficients): the binary value
    # they denote is used exactly
    rn, rd = rt = as_pair(rtol)
    if not (rd <= rn * MIN_RTOL[1] and rn < rd):
        raise InvalidParamsError(f"rtol must lie in [{pair_str(*MIN_RTOL)}, 1), got {pair_str(*rt)}")
    x_lo, x_hi, (wn, wd) = _radicands(a, b, _orbit(a, b, d0, l, cap)[l])
    # coarse pass only to learn the root's magnitude; never 0, since
    # b*D(l) = ab + b^2*D(l-1)^2 > ab >= 1/4 puts the root above 1/2
    c0 = _floor_point(x_lo, l, 8, max_digits)
    # grid below both the tolerance and the bracket width c*ln(Q)/2^l, estimated from below via
    # ln(Q) >= (Q-1)/Q; keeps rounding from dominating the width: the target is c0/10^8 times
    # the smaller of rt/2 and (Q-1)/Q over 20*2^l
    tol, width = (rn, 2 * rd), (wn, 20 * wd << l)
    num, den = tol if tol[0] * width[1] <= width[0] * tol[1] else width
    s = digits_for((c0 * num, 10 ** 8 * den))
    r = _floor_point(x_lo, l, s, max_digits)
    t = _ceil_point(x_hi, l, s, max_digits)
    c_lo, c_hi = _grid_pair(r, s), _grid_pair(t, s)
    # the containment contract, decided here on the returned endpoints: the roots rest part of it
    # on the candidate's proven bracket, not on a comparison
    if not (pow_cmp(c_lo, l, x_lo, max_digits=max_digits) <= 0 and pow_cmp(c_hi, l, x_hi, max_digits=max_digits) >= 0):
        raise CertificateError(f"[{pair_str(*c_lo)}, {pair_str(*c_hi)}] does not enclose the 2^{l}-th root bracket")
    # 10^-s <= rt * r/10^s
    if not rd <= rn * r:
        raise CertificateError(f"grid 10^-{s} is coarser than rtol={pair_str(*rt)} at c_lo={pair_str(*c_lo)}")
    return r, t, s


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
    Every root and comparison pass is held to max_digits decimal digits, each
    refused by ToleranceUnachievableError before it starts; D(l) is built
    first, bounded only by ``cap`` (see ROADMAP item 6).
    """
    r, t, s = _enclosure(*map(as_pair, params), l, rtol, cap, max_digits)
    return GrowthEnclosure(l=l, c_lo=_fraction(_grid_pair(r, s)), c_hi=_fraction(_grid_pair(t, s)), digits=s)


def _log_log_index(b: tuple, d: tuple, n: int, rtol) -> tuple[int, int]:
    """The pair of :func:`log_log_index` for the pairs b and d = D(n)."""
    rt = as_pair(rtol)
    if rt[0] <= 0:
        raise ValueError("rtol must be positive")
    x = _cancel(b[0] * d[0], b[1] * d[1], b[0] * b[1])
    if x[0] <= x[1]:
        raise InvalidParamsError(f"b*D(n) must exceed 1 for the double log, got {pair_str(*x)}")

    from .loglog import _settled_pass

    value = _settled_pass(x, n, rt)
    if value is None:
        raise ToleranceUnachievableError(f"log-log index did not stabilize to rtol={pair_str(*rt)}")
    return value


def log_log_index(table: SequenceTable, n: int, rtol) -> Fraction:
    """log2(ln(b*D(n))) / n with relative error <= rtol.

    Tends to 1 as n grows (deviation ~ |log2(ln C)| / n).  Evaluated at
    escalating precision until two consecutive passes agree within rtol/2;
    the returned Fraction is the exact value of the final binary float.  A
    pass in which ln(b*D(n)) cancels to zero or below gives no value.
    """
    if not 1 <= n <= table.n_max:
        raise IndexError(f"n={n} outside table range 1..{table.n_max}")
    return _fraction(_log_log_index(as_pair(table.params.b), as_pair(table[n]), n, rtol))


def _cmd_growth(args) -> Report:
    params = args.a, args.b, args.d0
    check_params(*params)
    if args.loglog_n is not None:
        check_cap(args.loglog_n, args.cap)
    r, t, s = _enclosure(*params, args.l, args.rtol, args.cap, args.max_digits)
    header = ["l", "digits", "c_lo", "c_hi", "width"]
    row = [args.l, s, fixed_str(r, s), fixed_str(t, s), fixed_str(t - r, s)]
    results = {**dict(zip(header, row)), "rtol": pair_str(*args.rtol)}
    lines = [f"rtol = {results['rtol']}"]
    if args.loglog_n is not None:
        index = _log_log_index(args.b, _orbit(*params, args.loglog_n, args.cap)[-1], args.loglog_n, args.rtol)
        results["log_log_index"] = {"n": args.loglog_n, "value": pair_str(*index)}
        lines.append(f"log_log_index(n={args.loglog_n}) = {pair_str(*index)}")
    return Report("growth", _params_dict(params), results, header, [row], lines)
