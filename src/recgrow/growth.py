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
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CertificateError, InvalidParamsError, ToleranceUnachievableError
from .recurrence import DEFAULT_CAP, DEFAULT_MAX_DIGITS, Params, SequenceTable, check_cap, evaluate, q_factor
from .roots import nth_root_lower, nth_root_upper, pow_cmp
from .report import Report, _params_dict, _params_from_args
from .serialize import decimal_str, frac_str

#: Finest relative tolerance the enclosure contract accepts.
MIN_RTOL = Fraction(1, 10 ** 30)


class GrowthEnclosure(namedtuple("GrowthEnclosure", "l c_lo c_hi digits")):
    """Certified decimal interval [c_lo, c_hi] containing the growth constant.

    Endpoints live on the 10^-digits grid and satisfy, exactly,
    c_lo^(2^l) <= b*D(l) and c_hi^(2^l) >= b*D(l)*Q(l).
    """

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.c_hi - self.c_lo


def digits_for(target: Fraction) -> int:
    """Smallest s >= 0 with 10^-s <= target (target > 0)."""
    if target <= 0:
        raise ValueError("target must be positive")
    if target >= 1:
        return 0
    # 10^s >= 1/target exactly when 10^s >= N = ceil(1/target) >= 2, an integer: s is the digit count of N - 1
    return len(frac_str(-(-target.denominator // target.numerator) - 1))


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
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    # floats are fine for tolerances (unlike coefficients): the binary value
    # they denote is used exactly
    rt = Fraction(rtol)
    if not MIN_RTOL <= rt < 1:
        raise InvalidParamsError(f"rtol must lie in [{MIN_RTOL}, 1), got {frac_str(rt)}")
    table = evaluate(params, l, cap=cap)
    x_lo = params.b * table[l]
    q = q_factor(params, table, l)
    x_hi = x_lo * q

    # coarse pass only to learn the root's magnitude; never 0, since
    # b*D(l) = ab + b^2*D(l-1)^2 > ab >= 1/4 puts the root above 1/2
    c0 = nth_root_lower(x_lo, l, 8, max_digits)
    # grid below both the tolerance and the bracket width c*ln(Q)/2^l, estimated
    # from below via ln(Q) >= (Q-1)/Q; keeps rounding from dominating the width
    target = min(rt * c0 / 2, c0 * (q - 1) / (q * 2 ** l) / 20)
    s = digits_for(target)
    c_lo = nth_root_lower(x_lo, l, s, max_digits)
    c_hi = nth_root_upper(x_hi, l, s, max_digits)
    # the containment contract, decided here on the returned endpoints: the roots rest part of it
    # on the candidate's proven bracket, not on a comparison
    if not (pow_cmp(c_lo, l, x_lo, max_digits=max_digits) <= 0 and pow_cmp(c_hi, l, x_hi, max_digits=max_digits) >= 0):
        raise CertificateError(f"[{frac_str(c_lo)}, {frac_str(c_hi)}] does not enclose the 2^{l}-th root bracket")
    if not Fraction(1, 10 ** s) <= rt * c_lo:
        raise CertificateError(f"grid 10^-{s} is coarser than rtol={frac_str(rt)} at c_lo={frac_str(c_lo)}")
    return GrowthEnclosure(l=l, c_lo=c_lo, c_hi=c_hi, digits=s)


def log_log_index(table: SequenceTable, n: int, rtol) -> Fraction:
    """log2(ln(b*D(n))) / n with relative error <= rtol.

    Tends to 1 as n grows (deviation ~ |log2(ln C)| / n).  Evaluated at
    escalating precision until two consecutive passes agree within rtol/2;
    the returned Fraction is the exact value of the final binary float.  A
    pass in which ln(b*D(n)) cancels to zero or below gives no value.
    """
    if not 1 <= n <= table.n_max:
        raise IndexError(f"n={n} outside table range 1..{table.n_max}")
    rt = Fraction(rtol)
    if rt <= 0:
        raise ValueError("rtol must be positive")
    x = table.params.b * table[n]
    if x <= 1:
        raise InvalidParamsError(f"b*D(n) must exceed 1 for the double log, got {frac_str(x)}")

    from .loglog import _log_log_pass

    prec = 80
    prev = _log_log_pass(x, n, prec)
    while prec <= 1 << 22:
        prec *= 2
        cur = _log_log_pass(x, n, prec)
        if prev is not None and cur is not None and abs(cur - prev) <= rt * abs(cur) / 2:
            return cur
        prev = cur
    raise ToleranceUnachievableError(f"log-log index did not stabilize to rtol={frac_str(rt)}")


def _cmd_growth(args) -> Report:
    params = _params_from_args(args)
    if args.loglog_n is not None:
        check_cap(args.loglog_n, args.cap)
    enc = growth_enclosure(params, args.l, args.rtol, cap=args.cap, max_digits=args.max_digits)
    results = {
        "l": enc.l,
        "rtol": frac_str(args.rtol),
        "digits": enc.digits,
        "c_lo": decimal_str(enc.c_lo, enc.digits),
        "c_hi": decimal_str(enc.c_hi, enc.digits),
        "width": decimal_str(enc.width, enc.digits),
    }
    if args.loglog_n is not None:
        index = log_log_index(evaluate(params, args.loglog_n, cap=args.cap), args.loglog_n, args.rtol)
        results["log_log_index"] = {"n": args.loglog_n, "value": frac_str(index)}
    return Report(
        command="growth",
        params=_params_dict(params),
        results=results,
        csv_header=["l", "digits", "c_lo", "c_hi", "width"],
        csv_rows=[[enc.l, enc.digits, results["c_lo"], results["c_hi"], results["width"]]],
        table_lines=[f"rtol = {results['rtol']}"]
        + (
            [f"log_log_index(n={args.loglog_n}) = {results['log_log_index']['value']}"]
            if args.loglog_n is not None
            else []
        ),
    )
