"""The int core of the recursion: exact values as lowest-terms int pairs ``(num, den)``, ``den > 0``.

The growth conditions, the orbit D(0..n) and the cancellations here take no gcd of two big numbers.
A ``growth`` run computes on these pairs from the parsed options to the printed text; the library's
``Fraction`` values are built from them by :func:`_fraction`, the one place here that imports
:mod:`fractions`.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvalidParamsError
from .recurrence import DEFAULT_CAP, ValidationReport, check_cap
from .serialize import parse_pair


def as_pair(value) -> tuple[int, int]:
    """The lowest-terms pair of a pair (returned as it is), a rational string, or a number with an exact
    ``as_integer_ratio`` (int, Fraction, and float or Decimal for a tolerance)."""
    if type(value) is tuple:
        return value
    return parse_pair(value) if isinstance(value, str) else value.as_integer_ratio()


class _LowestTerms(namedtuple("_LowestTerms", "numerator denominator")):
    """A lowest-terms pair, registered by :func:`_fraction` as the ``numbers.Rational`` that it is."""

    __slots__ = ()


def _fraction(pair: tuple) -> Fraction:
    """The Fraction of a lowest-terms pair.

    ``Fraction(num, den)`` takes gcd(num, den), quadratic in their size, while ``Fraction`` of a
    ``numbers.Rational``, whose parts are in lowest terms by that class's contract, copies them."""
    import numbers
    from fractions import Fraction

    numbers.Rational.register(_LowestTerms)
    return Fraction(_LowestTerms(*pair))


def _cancel(x: int, y: int, s: int) -> tuple[int, int]:
    """x and y over their gcd, for a small s != 0 that every prime common to x and y divides.

    gcd(c, x, y) is taken from the left, so each gcd has a small int as one argument and none runs on
    x and y together: the first is gcd(s, x, y), and each next one, of its square, strips at least
    twice the powers of the last."""
    c = gcd(s, x, y)
    while c > 1:
        x, y = x // c, y // c
        c = gcd(c * c, x, y)
    return x, y


def _next_numerator(a: tuple, b: tuple, d: tuple) -> int:
    """U = a_n*b_d*q^2 + a_d*b_n*p^2 for the pairs a, b and d = (p, q), all in lowest terms, so that
    D' = a + b*d^2 = U / (a_d*b_d*q^2), Q = 1 + a/(b*d^2) = U / (a_d*b_n*p^2) and the radicand
    b*d*Q of the growth bracket is U / (a_d*b_d*p*q).

    A prime common to U and any product of p, q and the parts of a and b divides s = a_n*a_d*b_n*b_d,
    as p and q are coprime and so are a's and b's parts: one dividing q divides a_d*b_n*p^2, hence
    a_d*b_n, and one dividing p divides a_n*b_d.  So :func:`_cancel` with that s reduces each of them."""
    (an, ad), (bn, bd), (p, q) = a, b, d
    return an * bd * q * q + ad * bn * p * p


def _radicands(a: tuple, b: tuple, d: tuple) -> tuple[tuple, tuple, tuple]:
    """For the pairs a, b and d = D(l): the radicands b*d and b*d*Q = (a + b*d^2)/d of the growth
    bracket in lowest terms, and (Q-1)/Q = a/D(l+1) = a_n*b_d*q^2/U unreduced, for Q = 1 + a/(b*d^2)."""
    (an, ad), (bn, bd), (p, q) = a, b, d
    u = _next_numerator(a, b, d)
    return _cancel(bn * p, bd * q, bn * bd), _cancel(u, ad * bd * p * q, an * ad * bn * bd), (an * bd * q * q, u)


def _violations(a: tuple, b: tuple, d0: tuple) -> tuple:
    """The growth conditions b > 0, 4ab >= 1, d0 > 0 that the pairs break, each with its witness pair."""
    (an, ad), (bn, bd) = a, b
    found = []
    if not bn > 0:
        found.append(("b > 0", b))
    if not 4 * an * bn >= ad * bd:
        g = gcd(4 * an * bn, ad * bd)
        found.append(("4ab >= 1", (4 * an * bn // g, ad * bd // g)))
    if not d0[0] > 0:
        found.append(("d0 > 0", d0))
    return tuple(found)


def check_params(a: tuple, b: tuple, d0: tuple) -> None:
    """Raise :class:`InvalidParamsError` when the pairs a, b, d0 break a growth condition."""
    violations = _violations(a, b, d0)
    if violations:
        raise InvalidParamsError(ValidationReport(ok=False, violations=violations))


def _orbit(a: tuple, b: tuple, d0: tuple, n_max: int, cap: int = DEFAULT_CAP) -> list:
    """The lowest-terms pairs D(0..n_max) of the pairs a, b, d0, after the checks that
    :func:`recgrow.recurrence.evaluate` makes."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    check_cap(n_max, cap)
    check_params(a, b, d0)
    (an, ad), (bn, bd) = a, b
    s, values = an * ad * bn * bd, [d0]
    for _ in range(n_max):
        q = values[-1][1]
        values.append(_cancel(_next_numerator(a, b, values[-1]), ad * bd * q * q, s))
    return values
