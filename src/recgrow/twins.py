"""The handlers of eval, bounds, converge and benchmark, whose values are each built once as an exact decimal.

A value is built only as its *decimal twin*, numerator and denominator as exact ``Decimal``
integers in :data:`~recgrow.serialize.EXACT`, by the step ``D(n+1) = a + b*D(n)^2`` or by
squarings (``P^(2^k)``, ``R^(2^k)``, ``Q(l)^(2^k)``, ``2^(2^(n-1))``).  Every printed twin passes
one gate, :func:`_text`, which checks its parts against a recurrence of small ints modulo the prime
``P = 2^61 - 1``, so a value one unit off or not in lowest terms raises :class:`~recgrow.errors.CertificateError`.
The gate returns a :class:`~recgrow.serialize.TwinText`; each handler builds its rows of these alone,
and the verdicts compare only them, exactly (:func:`_le`).  A factor ``c`` that the orbit's lowest terms
divide out leaves a residue as ``(x mod P*c) // c``, as no inverse of ``c`` exists when ``P``
divides it.  A ratio ``D(k+l)/lower`` is reduced by a gcd ``g`` (:func:`twin_reduce`), and its parts
are checked against the unreduced residues times the inverse of ``g`` modulo ``P``, or where ``P``
divides ``g``, times ``g`` exactly against the unreduced parts (:func:`_ratio`).
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import islice

from .errors import CertificateError
from .recurrence import Params, check_benchmark_regime, check_cap, evaluate, q_factor
from .report import Report, _UsageError, _discrepancies_for, _params_dict, _params_from_args, _rows_report
from .serialize import EXACT, TwinText, frac_str, to_decimal

#: the prime of every residue check
P = 2**61 - 1
_ONE = Decimal(1)
#: the precision, in digits, of the first outward-rounded bracket of a comparison
_BRACKET_DIGITS = 64


def twin_of(x: Fraction | int) -> tuple[Decimal, Decimal]:
    """The decimal twin (numerator, denominator) of ``x``."""
    return to_decimal(x.numerator), to_decimal(x.denominator)


def twin_reduce(x: Decimal, y: Decimal, w: int) -> tuple[Decimal, Decimal, Decimal]:
    """x/g, y/g and g for twins x and y != 0 with g = gcd(x, y), given that every prime
    of g divides the small int ``w``: remainders modulo small ints find g."""
    if x == y:
        return _ONE, _ONE, x

    def common(m: int) -> int:
        c = m if m == 1 else math.gcd(m, int(EXACT.remainder(x, to_decimal(m))))
        return c if c == 1 else math.gcd(c, int(EXACT.remainder(y, to_decimal(c))))

    g, c = _ONE, common(w)
    while c > 1:
        x, y, g = EXACT.divide_int(x, d := to_decimal(c)), EXACT.divide_int(y, d), EXACT.multiply(g, d)
        c = common(c * c)
    return x, y, g


def _times(x: Decimal, c) -> Decimal:
    return x if c == 1 else EXACT.multiply(x, c)


def _text(t: tuple, r: tuple, w: int = 1) -> TwinText:
    """The twin t = (num, den) as it prints, once num = x and den = y modulo P for the residues r = (x, y),
    num and den share no prime of w, and both are integers of exponent 0."""
    (num, den), (x, y) = t, r
    rn, rd = (int(EXACT.remainder(v, to_decimal(P * w))) for v in t)
    ok = (rn - x) % P == (rd - y) % P == 0 and math.gcd(w, rn, rd) == 1
    if not (ok and num.same_quantum(_ONE) and den.same_quantum(_ONE)):
        raise CertificateError(f"a {num.adjusted() + 1}-digit decimal twin fails its residue check")
    return TwinText(num, den)


def _le(s: TwinText, t: TwinText) -> bool:
    """s <= t for checked twins of positive values.

    num/den lies in [10^(e-1), 10^(e+1)) for e = adjusted(num) - adjusted(den), so digit counts
    decide most pairs, and twins with equal parts are equal.  Else the cross-products s_n*t_d
    and t_n*s_d are bracketed from operands rounded outward to prec digits, and prec grows
    fourfold while the brackets overlap; once prec reaches the longest operand, the exact
    cross-products decide.
    """
    sn, sd, tn, td = s.num, s.den, t.num, t.den
    es, et = sn.adjusted() - sd.adjusted(), tn.adjusted() - td.adjusted()
    if abs(es - et) >= 2:
        return es < et
    if sn == tn and sd == td:
        return True
    prec, top = _BRACKET_DIGITS, max(sn.adjusted(), sd.adjusted(), tn.adjusted(), td.adjusted()) + 1
    while prec < top:
        lo, hi = (Context(prec=prec, rounding=r, Emax=MAX_EMAX, traps=[]) for r in (ROUND_FLOOR, ROUND_CEILING))
        if hi.multiply(hi.plus(sn), hi.plus(td)) <= lo.multiply(lo.plus(tn), lo.plus(sd)):
            return True
        if lo.multiply(lo.plus(sn), lo.plus(td)) > hi.multiply(hi.plus(tn), hi.plus(sd)):
            return False
        prec *= 4
    return _times(sn, td) <= _times(tn, sd)


def _orbit(params: Params, n: int):
    """(twin, residues) of D(0..n) in lowest terms, one recurrence step at a time."""
    (an, ad), (bn, bd) = params.a.as_integer_ratio(), params.b.as_integer_ratio()
    # a + b*(x/y)^2 = (u*y^2 + v*x^2) / (w*y^2) for coprime x, y shares a factor c with its
    # denominator whose prime powers divide m = v*w, so c = gcd(m, both parts), and residues
    # modulo P*m^j give the reduced parts modulo P*m^(j-1)
    u, v, w = an * bd, bn * ad, ad * bd
    m, uvw = v * w, tuple(map(to_decimal, (u, v, w)))
    t, (x, y), mod = twin_of(params.d0), params.d0.as_integer_ratio(), P * m**n
    for _ in range(n):
        yield t, (x, y)
        x, y = (u * y * y + v * x * x) % mod, w * y * y % mod
        c, mod = math.gcd(m, x, y), mod // m
        x, y = x // c % mod, y // c % mod
        q2 = EXACT.multiply(t[1], t[1])
        t = EXACT.fma(uvw[0], q2, EXACT.multiply(uvw[1], EXACT.multiply(t[0], t[0]))), EXACT.multiply(uvw[2], q2)
        if c > 1:
            t = EXACT.divide_int(t[0], c), EXACT.divide_int(t[1], c)
    yield t, (x, y)


def _square(t: tuple) -> tuple:
    return tuple(EXACT.multiply(x, x) for x in t)


def _power_over(t: tuple, f: Fraction, g: Fraction, k: int) -> tuple:
    """(twin, residues) of f^(2^k) / g in lowest terms, for small f, g > 0 and the twin t of
    f^(2^k): both are reduced, so only gcd(f_n^(2^k), g_n) and gcd(f_d^(2^k), g_d) cancel."""
    e, (fn, fd), (gn, gd) = 1 << k, f.as_integer_ratio(), g.as_integer_ratio()
    cn, cd = math.gcd(pow(fn, e, gn), gn), math.gcd(pow(fd, e, gd), gd)
    twin = _times(EXACT.divide_int(t[0], cn), gd // cd), _times(EXACT.divide_int(t[1], cd), gn // cn)
    return twin, (pow(fn, e, P * cn) // cn * (gd // cd), pow(fd, e, P * cd) // cd * (gn // cn))


def _ratio(b: Fraction, d: Fraction, act: tuple, lo: tuple, minus: int = 0) -> TwinText:
    """The checked twin of act / lo - minus, reduced by g as bounds reduces D(k+l) / lower: the reduced
    parts times g are act_n*lo_d and act_d*lo_n, and each prime of g divides b_n*d_n or b_d*d_d."""
    ((an, ad), (x, y)), ((ln, ld), (s, t)) = act, lo
    wn, wd = b.numerator * d.numerator, b.denominator * d.denominator
    (xn, yn, gn), (xd, yd, gd) = twin_reduce(an, ln, wn), twin_reduce(ad, ld, wd)
    num, den, g = _times(xn, yd), _times(xd, yn), EXACT.multiply(gn, gd)
    twin = EXACT.subtract(num, den) if minus else num, den
    if gp := int(EXACT.remainder(g, to_decimal(P))):
        # the residues of the reduced parts are those of the unreduced parts over g
        inv = pow(gp, -1, P)
        return _text(twin, ((x * t - minus * y * s) * inv, y * s * inv), wn * wd)
    # P divides g, so the residues are 0 modulo P: check act and lo part by part, then the ratio exactly
    _text(*act), _text(*lo)
    p, q = _times(an, ld), _times(ad, ln)
    if [EXACT.multiply(v, g) for v in twin] != [EXACT.subtract(p, q) if minus else p, q]:
        raise CertificateError(f"a {twin[0].adjusted() + 1}-digit decimal twin fails its exact check")
    return _text(twin, [int(EXACT.remainder(v, to_decimal(P))) for v in twin], wn * wd)


def _cmd_eval(args) -> Report:
    params = _params_from_args(args)
    check_cap(args.n, args.cap)
    values = [_text(t, r) for t, r in _orbit(params, args.n)]
    monotone = all(map(_le, values, values[1:]))
    return Report(
        command="eval",
        params=_params_dict(params),
        results={"n_max": args.n, "values": values, "monotone": monotone},
        csv_header=["n", "value"],
        csv_rows=[[n, v] for n, v in enumerate(values)],
        table_lines=[f"monotone = {monotone}"],
        discrepancies=_discrepancies_for(params, args.cap),
    )


def _cmd_bounds(args) -> Report:
    """One certificate row (k, l, Q(l), lower, upper, actual, ratio, holds) per (k, l), k-major.

    Each row k squares the powers P^(2^(k-1)) and R^(2^(k-1)) of the row before, which is then dropped.
    """
    params, k_max, l_max = _params_from_args(args), args.kmax, args.lmax
    check_cap(k_max + l_max, args.cap)
    b, head = params.b, evaluate(params, l_max, args.cap)
    orbit = list(_orbit(params, k_max + l_max))
    # the bases P = b*D(l) and R = P*Q(l), with Q(l)
    bases = {l: (b * head[l], q_factor(params, head, l)) for l in range(1, l_max + 1)}
    powers = {l: (twin_of(f), twin_of(f * q)) for l, (f, q) in bases.items()}
    rows = []
    for k in range(1, k_max + 1):
        powers = {l: (_square(p), _square(r)) for l, (p, r) in powers.items()}
        for l, (p, r) in powers.items():
            (f, q), act = bases[l], orbit[k + l]
            lo, up = _power_over(p, f, b, k), _power_over(r, f * q, b * q, k)
            lower, upper, actual, ratio = _text(*lo), _text(*up), _text(*act), _ratio(b, head[l], act, lo)
            # lower <= actual is ratio >= 1, and the ratio is reduced
            rows.append([k, l, frac_str(q), lower, upper, actual, ratio, ratio.num >= ratio.den and _le(actual, upper)])
    all_hold = all(r[-1] for r in rows)
    fields = ("k", "l", "q_l", "lower", "upper", "actual", "ratio", "holds")
    results, lines = {"k_max": k_max, "l_max": l_max, "all_hold": all_hold}, [f"all_hold = {all_hold}"]
    return _rows_report("bounds", _params_dict(params), fields, rows, "certificates", results, lines)


def _cmd_converge(args) -> Report:
    """One row (l, ratio - 1, Q(l)^(2^k - 1) - 1) per l = lmin..lmax."""
    params, k, l_max = _params_from_args(args), args.k, args.lmax
    if args.lmin > l_max:
        raise _UsageError("converge: --lmin must not exceed --lmax")
    check_cap(k + l_max, args.cap)
    b, head = params.b, evaluate(params, l_max, args.cap)
    rows = []
    for l, act in zip(range(args.lmin, l_max + 1), islice(_orbit(params, k + l_max), k + args.lmin, None)):
        f, q = b * head[l], q_factor(params, head, l)
        p, qk = twin_of(f), twin_of(q)
        for _ in range(k):
            p, qk = _square(p), _square(qk)
        # x - 1 of the reduced x = Q^(2^k) / Q stays reduced
        (gn, gd), (qn, qd) = _power_over(qk, q, q, k)
        ratio = _ratio(b, head[l], act, _power_over(p, f, b, k), minus=1)
        rows.append([l, ratio, _text((EXACT.subtract(gn, gd), gd), (qn - qd, qd))])
    return _rows_report("converge", _params_dict(params), ("l", "ratio_minus_1", "gap"), rows, "rows", {"k": k})


def _cmd_benchmark(args) -> Report:
    """One row (n, D(n), 2^(2^(n-1)), D(n) >= 2^(2^(n-1))) per n = 0..n_max, with 1 as the n = 0 benchmark."""
    params = _params_from_args(args)
    check_benchmark_regime(params)
    check_cap(args.n, args.cap)
    rows, mark = [], ((_ONE, _ONE), (1, 1))
    for j, (t, r) in enumerate(_orbit(params, args.n)):
        value, bench = _text(t, r), _text(*mark)
        rows.append([j, value, bench, _le(bench, value)])
        mark = ((EXACT.multiply(bench.num, bench.num) if j else to_decimal(2), _ONE), (pow(2, 1 << j, P), 1))
    all_dominate = all(r[-1] for r in rows)
    fields, results = ("n", "value", "benchmark", "dominates"), {"all_dominate": all_dominate}
    lines = [f"all_dominate = {all_dominate}"]
    return _rows_report("benchmark", _params_dict(params), fields, rows, "rows", results, lines)
