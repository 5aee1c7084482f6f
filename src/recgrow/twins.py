"""The values that eval, bounds, converge and benchmark print, each built once as an exact decimal.

A value is built only as its *decimal twin*, numerator and denominator as exact ``Decimal``
integers in :data:`~recgrow.serialize.EXACT`, by the step ``D(n+1) = a + b*D(n)^2`` or by
squarings (``P^(2^k)``, ``R^(2^k)``, ``Q(l)^(2^k)``, ``2^(2^(n-1))``), and the verdicts are
decided exactly from the twins (:func:`_le`).  Each part of a twin is checked against a
recurrence of small ints modulo the prime ``P = 2^61 - 1``, so a value one unit off or not in
lowest terms raises :class:`~recgrow.errors.CertificateError`; the row functions return only
checked twins, each as a :class:`~recgrow.serialize.TwinText`, so the report holds no text of its
own.  A factor ``c`` leaves a residue as ``(x mod P*c) // c``, as no inverse of ``c`` exists when
``P`` divides it.  A ratio ``D(k+l)/lower`` is reduced by a gcd ``g`` (:func:`twin_reduce`): each
part times ``g`` is checked against the residues of its unreduced part, or exactly where ``P``
divides ``g``.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import islice

from .errors import CertificateError
from .recurrence import Params, SequenceTable, check_cap, q_factor
from .serialize import EXACT, TwinText, to_decimal

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


def _text(t: tuple, r: tuple, gp: int = 1, w: int = 1, exact=None) -> TwinText:
    """The twin t = (num, den) as it prints, once num*gp = x and den*gp = y modulo P for the residues
    r = (x, y) (where P divides gp, once exact(t) holds) and num and den share no prime of w."""
    (num, den), (x, y) = t, r
    rn, rd = (int(EXACT.remainder(v, to_decimal(P * w))) for v in t)
    ok = (rn * gp - x) % P == (rd * gp - y) % P == 0 if gp % P else exact(t)
    if not (ok and math.gcd(w, rn, rd) == 1 and num.same_quantum(_ONE) and den.same_quantum(_ONE)):
        raise CertificateError(f"a {num.adjusted() + 1}-digit decimal twin fails its residue check")
    return TwinText(num, den)


def _le(s: tuple, t: tuple) -> bool:
    """s <= t for twins of positive values.

    num/den lies in [10^(e-1), 10^(e+1)) for e = adjusted(num) - adjusted(den), so digit counts
    decide most pairs, and twins with equal parts are equal.  Else the cross-products s_n*t_d
    and t_n*s_d are bracketed from operands rounded outward to prec digits, and prec grows
    fourfold while the brackets overlap; once prec reaches the longest operand, the exact
    cross-products decide.
    """
    (sn, sd), (tn, td) = s, t
    es, et = sn.adjusted() - sd.adjusted(), tn.adjusted() - td.adjusted()
    if abs(es - et) >= 2:
        return es < et
    if sn == tn and sd == td:
        return True
    prec, top = _BRACKET_DIGITS, max(sn.adjusted(), sd.adjusted(), tn.adjusted(), td.adjusted()) + 1
    while prec < top:
        lo, hi = (Context(prec=prec, rounding=r, Emax=MAX_EMAX) for r in (ROUND_FLOOR, ROUND_CEILING))
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


def _head(params: Params, n: int) -> SequenceTable:
    """D(0..n) as Fractions, for the small bases b*D(l) and Q(l) of the bounds."""
    values = [params.d0]
    for _ in range(n):
        values.append(params.a + params.b * values[-1] ** 2)
    return SequenceTable(params, tuple(values))


def _square(t: tuple) -> tuple:
    return tuple(EXACT.multiply(x, x) for x in t)


def _power_over(t: tuple, f: Fraction, g: Fraction, k: int) -> tuple:
    """(twin, residues) of f^(2^k) / g in lowest terms, for small f, g > 0 and the twin t of
    f^(2^k): both are reduced, so only gcd(f_n^(2^k), g_n) and gcd(f_d^(2^k), g_d) cancel."""
    e, (fn, fd), (gn, gd) = 1 << k, f.as_integer_ratio(), g.as_integer_ratio()
    cn, cd = math.gcd(pow(fn, e, gn), gn), math.gcd(pow(fd, e, gd), gd)
    twin = _times(EXACT.divide_int(t[0], cn), gd // cd), _times(EXACT.divide_int(t[1], cd), gn // cn)
    return twin, (pow(fn, e, P * cn) // cn * (gd // cd), pow(fd, e, P * cd) // cd * (gn // cn))


def _ratio(b: Fraction, d: Fraction, act: tuple, lo: tuple, minus: int = 0) -> tuple:
    """The arguments of _text for act / lo - minus, reduced as bounds reduces D(k+l) / lower: the
    reduced parts times g are act_n*lo_d and act_d*lo_n, and a prime that these share divides w."""
    ((an, ad), (x, y)), ((ln, ld), (s, t)) = act, lo
    xn, yn, gn = twin_reduce(an, ln, b.numerator * d.numerator)
    xd, yd, gd = twin_reduce(ad, ld, b.denominator * d.denominator)

    def exact(twin: list) -> bool:
        # P divides g, so the residues are 0 modulo P: check act and lo part by part, then the ratio exactly
        _text(*act), _text(*lo)
        p, q = _times(an, ld), _times(ad, ln)
        return [EXACT.multiply(v, g) for v in twin] == [EXACT.subtract(p, q) if minus else p, q]

    num, den, g = _times(xn, yd), _times(xd, yn), EXACT.multiply(gn, gd)
    gp, w = int(EXACT.remainder(g, to_decimal(P))), b.numerator * d.numerator * b.denominator * d.denominator
    return [EXACT.subtract(num, den) if minus else num, den], (x * t - minus * y * s, y * s), gp, w, exact


def eval_values(params: Params, n: int, cap: int) -> tuple[list[str], bool]:
    """The printed D(0..n) and whether D(j) <= D(j+1) for every j."""
    check_cap(n, cap)
    orbit = list(_orbit(params, n))
    values = [_text(t, r) for t, r in orbit]
    return values, all(_le(s[0], t[0]) for s, t in zip(orbit, orbit[1:]))


def bound_rows(params: Params, k_max: int, l_max: int, cap: int):
    """(k, l, Q(l), lower, upper, actual, ratio, holds) of each certificate, k-major.

    Each row k squares the powers P^(2^(k-1)) and R^(2^(k-1)) of the row before, which is then dropped.
    """
    check_cap(k_max + l_max, cap)
    b, head = params.b, _head(params, l_max)
    orbit = list(_orbit(params, k_max + l_max))
    # the bases P = b*D(l) and R = P*Q(l), with Q(l)
    bases = {l: (b * head[l], q_factor(params, head, l)) for l in range(1, l_max + 1)}
    powers = {l: (twin_of(f), twin_of(f * q)) for l, (f, q) in bases.items()}
    for k in range(1, k_max + 1):
        powers = {l: (_square(p), _square(r)) for l, (p, r) in powers.items()}
        for l, (p, r) in powers.items():
            (f, q), act = bases[l], orbit[k + l]
            lo, up = _power_over(p, f, b, k), _power_over(r, f * q, b * q, k)
            rat = _ratio(b, head[l], act, lo)
            # lower <= actual is ratio >= 1, and the ratio is reduced
            holds = rat[0][0] >= rat[0][1] and _le(act[0], up[0])
            yield k, l, q, _text(*lo), _text(*up), _text(*act), _text(*rat), holds


def profile_rows(params: Params, k: int, l_min: int, l_max: int, cap: int):
    """(l, ratio - 1, Q(l)^(2^k - 1) - 1) of each convergence profile row, l = l_min..l_max."""
    check_cap(k + l_max, cap)
    b, head, e = params.b, _head(params, l_max), 1 << k
    for l, act in zip(range(l_min, l_max + 1), islice(_orbit(params, k + l_max), k + l_min, None)):
        f, q = b * head[l], q_factor(params, head, l)
        p, qk = twin_of(f), twin_of(q)
        for _ in range(k):
            p, qk = _square(p), _square(qk)
        rat = _ratio(b, head[l], act, _power_over(p, f, b, k), minus=1)
        # Q(l) is reduced, so Q^(2^k) / Q divides part by part, and x - 1 of a reduced x stays reduced
        gn, gd = (EXACT.divide_int(s, t) for s, t in zip(qk, twin_of(q)))
        qn, qd = (pow(z, e - 1, P) for z in q.as_integer_ratio())
        yield l, _text(*rat), _text((EXACT.subtract(gn, gd), gd), (qn - qd, qd))


def benchmark_rows(params: Params, n: int, cap: int):
    """(n, D(n), 2^(2^(n-1)), D(n) >= 2^(2^(n-1))) for n = 0..n_max, with 1 as the n = 0 benchmark."""
    check_cap(n, cap)
    mark = (_ONE, _ONE), (1, 1)
    for j, (t, r) in enumerate(_orbit(params, n)):
        yield j, _text(t, r), _text(*mark), _le(mark[0], t)
        mark = ((EXACT.multiply(mark[0][0], mark[0][0]) if j else to_decimal(2), _ONE), (pow(2, 1 << j, P), 1))
