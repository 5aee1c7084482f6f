"""Envelope bounds for recursions with a power-law nonlinearity.

Whenever the step map F is sandwiched as

    C1 * z^(1+delta)  <=  F(n, z)  <=  C2 * z^(1+delta)    for z >= 1,

iterating the pure power maps L -> C1*L^(1+delta) and U -> C2*U^(1+delta)
from the same seed brackets the true orbit: L(n) <= D(n) <= U(n).  The
quadratic recursion is the special case delta = 1, C1 = C2 = b (where the
lower envelope is exactly the certified pure-quadratic bound).

Families are restricted to F(n, z) = alpha(n) * z^p + beta(n) with rational
coefficients and integer p >= 1, so :func:`verify_sandwich` decides the claim
for every z >= 1 in closed form; it holds only when p = 1 + delta.  So the
envelopes take an integer 1 + delta only, and every value they return is an
exact rational.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidParamsError
from .recurrence import ValidationReport, as_fraction, check_cap
from .report import Report, _read_document, _rows_report
from .serialize import frac_str, parse_rational


def _coeff(coeffs, n: int) -> Fraction:
    if isinstance(coeffs, tuple):
        if n >= len(coeffs):
            raise IndexError(f"coefficient table has {len(coeffs)} entries, needed index {n}")
        return coeffs[n]
    return coeffs


class PowerFamily(namedtuple("PowerFamily", "power alpha beta")):
    """Step map F(n, z) = alpha(n) * z^power + beta(n).

    ``alpha``/``beta`` are either a single Fraction (constant coefficients)
    or a tuple indexed by n.
    """

    __slots__ = ()

    def __new__(cls, power: int, alpha, beta):
        if power < 1:
            raise InvalidParamsError(f"power must be >= 1, got {power}")
        coeffs = (tuple(map(as_fraction, c)) if isinstance(c, (list, tuple)) else as_fraction(c) for c in (alpha, beta))
        return super().__new__(cls, power, *coeffs)

    def apply(self, n: int, z: Fraction) -> Fraction:
        return _coeff(self.alpha, n) * z ** self.power + _coeff(self.beta, n)


class PowerNonlinearity(namedtuple("PowerNonlinearity", "c1 c2 delta family")):
    """A family together with its claimed sandwich constants (C1, C2, delta)."""

    __slots__ = ()

    def __new__(cls, c1, c2, delta, family: PowerFamily):
        c1, c2, delta = as_fraction(c1), as_fraction(c2), as_fraction(delta)
        if not 0 < c1 <= c2:
            raise InvalidParamsError(f"need 0 < C1 <= C2, got C1={frac_str(c1)}, C2={frac_str(c2)}")
        if delta <= 0:
            raise InvalidParamsError(f"delta must be positive, got {frac_str(delta)}")
        return super().__new__(cls, c1, c2, delta, family)


class EnvelopePair(namedtuple("EnvelopePair", "lower upper")):
    """Pointwise bracket sequences around an orbit, both exact rationals."""

    __slots__ = ()


def _integer_exponent(pn: PowerNonlinearity) -> int:
    """1 + delta, refused unless it is an integer: no power family meets a claim with any other."""
    e = 1 + pn.delta
    if e.denominator != 1:
        raise InvalidParamsError(f"1 + delta must be an integer, got {frac_str(e)}")
    return int(e)


def verify_sandwich(pn: PowerNonlinearity, n_range) -> ValidationReport:
    """Decide C1*z^(1+delta) <= F(n, z) <= C2*z^(1+delta) for every z >= 1 and every n in n_range.

    F/z^(1+delta) tends to 0 or +-infinity when p != 1 + delta: one violation, of margin p - 1 - delta,
    whatever n_range holds.
    Else it is alpha + beta*s, linear in s = z^-p over (0, 1], so the claim holds at step n exactly when
    C1 <= min(alpha, alpha+beta) and max(alpha, alpha+beta) <= C2; a failing side's violation is its shortfall.
    """
    e = 1 + pn.delta
    if pn.family.power != e:
        return ValidationReport(ok=False, violations=(("power = 1+delta", pn.family.power - e),))
    violations = []
    for n in n_range:
        alpha = _coeff(pn.family.alpha, n)
        ends = (alpha, alpha + _coeff(pn.family.beta, n))
        if min(ends) < pn.c1:
            violations.append((f"C1*z^(1+delta) <= F at n={n}", pn.c1 - min(ends)))
        if max(ends) > pn.c2:
            violations.append((f"F <= C2*z^(1+delta) at n={n}", max(ends) - pn.c2))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def iterate_family(family: PowerFamily, d0, n_max: int) -> tuple[Fraction, ...]:
    """Exact orbit D(0..n_max) of the family itself."""
    values = [as_fraction(d0)]
    for n in range(n_max):
        values.append(family.apply(n, values[-1]))
    return tuple(values)


def envelope(pn: PowerNonlinearity, d0, n_max: int) -> EnvelopePair:
    """Bracket sequences L, U with L(0) = U(0) = d0 and

        L(n+1) = C1 * L(n)^(1+delta),   U(n+1) = C2 * U(n)^(1+delta).

    Requires an integer 1 + delta and d0 >= 1, and checks that L stays >= 1
    (the sandwich regime).
    """
    seed = as_fraction(d0)
    if seed < 1:
        raise ValueError(f"seed must be >= 1, got {frac_str(seed)}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    e = _integer_exponent(pn)
    lower, upper = [seed], [seed]
    for n in range(n_max):
        lo = pn.c1 * lower[-1] ** e
        if lo < 1:
            raise InvalidParamsError(
                f"lower envelope left the z >= 1 regime at step {n + 1} (L={frac_str(lo)}); increase C1 or the seed"
            )
        lower.append(lo)
        upper.append(pn.c2 * upper[-1] ** e)
    return EnvelopePair(lower=tuple(lower), upper=tuple(upper))


def closed_form_lower(pn: PowerNonlinearity, l_value, k: int) -> Fraction:
    """k-fold lower envelope in closed form, exactly, for an integer 1 + delta:

        C1^(((1+delta)^k - 1)/delta) * l_value^((1+delta)^k).
    """
    z = as_fraction(l_value)
    if z < 1:
        raise ValueError(f"l_value must be >= 1, got {frac_str(z)}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    e = _integer_exponent(pn)
    return pn.c1 ** ((e ** k - 1) // (e - 1)) * z ** e ** k


def _family_from_doc(doc: dict, n: int) -> tuple:
    """(PowerNonlinearity, d0) of a nonlinearity document whose coefficient arrays cover steps 0..n-1."""
    power = doc.get("power", 2)
    if type(power) not in (int, str):  # int() would read 2.7 as 2 and true as 1
        raise TypeError(f"power must be an integer, got {type(power).__name__}")
    coeffs = {}
    for name in ("alpha", "beta"):
        c = doc[name]
        if isinstance(c, list) and len(c) < n:
            raise ValueError(f"{name} has {len(c)} entries, fewer than --n {n}")
        coeffs[name] = tuple(map(parse_rational, c)) if isinstance(c, list) else parse_rational(c)
    family = PowerFamily(power=int(power), **coeffs)
    c1, c2, delta = (parse_rational(doc[name]) for name in ("c1", "c2", "delta"))
    return PowerNonlinearity(c1, c2, delta, family), parse_rational(doc.get("d0", "1"))


def _coeff_json(coeffs):
    if isinstance(coeffs, tuple):
        return [frac_str(c) for c in coeffs]
    return frac_str(coeffs)


def _cmd_general(args) -> Report:
    pn, d0 = _read_document(args.file, "nonlinearity", lambda doc: _family_from_doc(doc, args.n))
    if d0 < 1:
        raise InvalidParamsError(f"seed must be >= 1, got {frac_str(d0)}")
    check_cap(args.n, args.cap)
    orbit = iterate_family(pn.family, d0, args.n)
    if min(orbit) < 1:  # the envelopes' induction uses the claim at z = D(n)
        raise InvalidParamsError("sandwich condition is only claimed for z >= 1")
    sandwich = verify_sandwich(pn, range(args.n))
    params = {
        "c1": frac_str(pn.c1),
        "c2": frac_str(pn.c2),
        "delta": frac_str(pn.delta),
        "power": pn.family.power,
        "alpha": _coeff_json(pn.family.alpha),
        "beta": _coeff_json(pn.family.beta),
        "d0": frac_str(d0),
    }
    if not sandwich.ok:
        raise InvalidParamsError(sandwich)
    pair = envelope(pn, d0, args.n)
    rows = [
        [n, frac_str(lo), frac_str(value), frac_str(up), lo <= value <= up]
        for n, (lo, value, up) in enumerate(zip(pair.lower, orbit, pair.upper))
    ]
    all_contained = all(r[-1] for r in rows)
    fields = ("n", "lower", "value", "upper", "contained")
    # every envelope is exact; the field stays so that reports keep their bytes
    results = {"sandwich_ok": True, "exact": True, "all_contained": all_contained}
    lines = ["sandwich_ok = True", "exact = True", f"all_contained = {all_contained}"]
    return _rows_report("general", params, fields, rows, "rows", results, lines)
