"""Envelope bounds for recursions with a power-law nonlinearity.

Whenever the step map F is sandwiched as

    C1 * z^(1+delta)  <=  F(n, z)  <=  C2 * z^(1+delta)    for z >= 1,

iterating the pure power maps L -> C1*L^(1+delta) and U -> C2*U^(1+delta)
from the same seed brackets the true orbit: L(n) <= D(n) <= U(n).  The
quadratic recursion is the special case delta = 1, C1 = C2 = b (where the
lower envelope is exactly the certified pure-quadratic bound).

Families are restricted to F(n, z) = alpha(n) * z^p + beta(n) with rational
coefficients, which keeps the sandwich check decidable: for rational
1 + delta = u/v, the inequality C*z^(u/v) <= F is equivalent to
C^v * z^u <= F^v, an exact rational comparison.  The envelopes take such
powers as grid points r/10^digits certified by :func:`~recgrow.roots.pow_lower`
and :func:`~recgrow.roots.pow_upper`, which compare (r/10^digits)^v with z^u
without forming z^u, under the one digit budget of
:func:`~recgrow.roots.digit_budget` (ToleranceUnachievableError past it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .recurrence import ValidationReport, as_fraction
from .roots import pow_lower, pow_upper
from .serialize import frac_str

DEFAULT_ROOT_DIGITS = 40


def _coeff(coeffs, n: int) -> Fraction:
    if isinstance(coeffs, tuple):
        if n >= len(coeffs):
            raise IndexError(f"coefficient table has {len(coeffs)} entries, needed index {n}")
        return coeffs[n]
    return coeffs


@dataclass(frozen=True)
class PowerFamily:
    """Step map F(n, z) = alpha(n) * z^power + beta(n).

    ``alpha``/``beta`` are either a single Fraction (constant coefficients)
    or a tuple indexed by n.
    """

    power: int
    alpha: Union[Fraction, tuple[Fraction, ...]]
    beta: Union[Fraction, tuple[Fraction, ...]]

    def __post_init__(self):
        if self.power < 1:
            raise ValueError(f"power must be >= 1, got {self.power}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, (list, tuple)):
                object.__setattr__(self, name, tuple(as_fraction(c) for c in v))
            else:
                object.__setattr__(self, name, as_fraction(v))

    def apply(self, n: int, z: Fraction) -> Fraction:
        return _coeff(self.alpha, n) * z ** self.power + _coeff(self.beta, n)


@dataclass(frozen=True)
class PowerNonlinearity:
    """A family together with its claimed sandwich constants (C1, C2, delta)."""

    c1: Fraction
    c2: Fraction
    delta: Fraction
    family: PowerFamily

    def __post_init__(self):
        object.__setattr__(self, "c1", as_fraction(self.c1))
        object.__setattr__(self, "c2", as_fraction(self.c2))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not 0 < self.c1 <= self.c2:
            raise ValueError(f"need 0 < C1 <= C2, got C1={frac_str(self.c1)}, C2={frac_str(self.c2)}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {frac_str(self.delta)}")


@dataclass(frozen=True)
class EnvelopePair:
    """Pointwise bracket sequences around an orbit.

    ``exact`` is True when the exponent 1 + delta is an integer, so both
    sequences are exact rationals; otherwise lower values are rounded down
    and upper values up on the 10^-digits grid, preserving the bracket.
    """

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    exact: bool


def verify_sandwich(pn: PowerNonlinearity, z_samples, n_range) -> ValidationReport:
    """Exactly check C1*z^(1+delta) <= F(n, z) <= C2*z^(1+delta) on samples.

    Violations are reported with the exact residual in the v-th-power domain
    (v = denominator of 1 + delta); for integer delta that is the plain
    difference from the violated side.
    """
    samples = [as_fraction(z) for z in z_samples]
    if not samples:
        raise ValueError("need at least one z sample")
    if any(z < 1 for z in samples):
        raise ValueError("sandwich condition is only claimed for z >= 1")
    e = 1 + pn.delta
    u, v = e.numerator, e.denominator
    violations = []
    for n in n_range:
        for z in samples:
            f = pn.family.apply(n, z)
            zu = z ** u
            fv = f ** v
            low, high = pn.c1 ** v * zu, pn.c2 ** v * zu
            if fv < low:
                violations.append((f"C1*z^(1+delta) <= F at n={n}, z={frac_str(z)}", low - fv))
            if fv > high:
                violations.append((f"F <= C2*z^(1+delta) at n={n}, z={frac_str(z)}", fv - high))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def iterate_family(family: PowerFamily, d0, n_max: int) -> tuple[Fraction, ...]:
    """Exact orbit D(0..n_max) of the family itself."""
    values = [as_fraction(d0)]
    for n in range(n_max):
        values.append(family.apply(n, values[-1]))
    return tuple(values)


def envelope(pn: PowerNonlinearity, d0, n_max: int, root_digits: int = DEFAULT_ROOT_DIGITS) -> EnvelopePair:
    """Bracket sequences L, U with L(0) = U(0) = d0 and

        L(n+1) = C1 * L(n)^(1+delta),   U(n+1) = C2 * U(n)^(1+delta).

    Requires d0 >= 1 and checks that L stays >= 1 (the sandwich regime);
    non-integer delta uses outward-rounded rational powers, which keeps the
    bracket valid because both step maps are monotone.
    """
    seed = as_fraction(d0)
    if seed < 1:
        raise ValueError(f"seed must be >= 1, got {frac_str(seed)}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    e = 1 + pn.delta
    exact = e.denominator == 1
    lower, upper = [seed], [seed]
    for n in range(n_max):
        lo = pn.c1 * pow_lower(lower[-1], e, root_digits)
        up = pn.c2 * pow_upper(upper[-1], e, root_digits)
        if lo < 1:
            raise ValueError(
                f"lower envelope left the z >= 1 regime at step {n + 1} (L={frac_str(lo)}); "
                f"increase C1, the seed, or root_digits"
            )
        lower.append(lo)
        upper.append(up)
    return EnvelopePair(lower=tuple(lower), upper=tuple(upper), exact=exact)


def closed_form_lower(
    pn: PowerNonlinearity, l_value, k: int, root_digits: int = DEFAULT_ROOT_DIGITS
) -> Union[Fraction, tuple[Fraction, Fraction]]:
    """k-fold lower envelope in closed form:

        C1^(((1+delta)^k - 1)/delta) * l_value^((1+delta)^k).

    Returns an exact Fraction when both exponents are integers (always the
    case for integer delta); otherwise a certified (low, high) pair on the
    10^-root_digits grid.
    """
    z = as_fraction(l_value)
    if z < 1:
        raise ValueError(f"l_value must be >= 1, got {frac_str(z)}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    e = 1 + pn.delta
    z_exp = e ** k
    c_exp = (z_exp - 1) / pn.delta
    if z_exp.denominator == 1 and c_exp.denominator == 1:
        return pn.c1 ** int(c_exp) * z ** int(z_exp)
    lo = pow_lower(pn.c1, c_exp, root_digits) * pow_lower(z, z_exp, root_digits)
    hi = pow_upper(pn.c1, c_exp, root_digits) * pow_upper(z, z_exp, root_digits)
    return (lo, hi)
