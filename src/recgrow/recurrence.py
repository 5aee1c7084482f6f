"""Exact evaluation of the quadratic recursion D(n+1) = a + b*D(n)^2.

Every term is an exact rational, computed by the int core in :mod:`recgrow.pairs` as a
lowest-terms pair ``(num, den)``; :func:`evaluate` and the rest of the library API here
hand out ``fractions.Fraction`` values built from those pairs.  When a, b
and the seed are integers every term stays an integer (denominator 1).  Floating point
appears nowhere: the bound certificates downstream are exact inequalities.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapExceededError, CertificateError, InvalidParamsError
from .serialize import frac_str, parse_rational

#: what the library takes as an exact rational
RationalLike = "Fraction | int | str"

#: Default cap on the largest computable index.  The bit size of D(n) grows
#: like 2^n, so D(30) for a = b = 1 already has ~6e8 bits.
DEFAULT_CAP = 30

#: Matrix-specific cap: every entry grows like the scalar terms, times m^2 of them.
MATRIX_DEFAULT_CAP = 16

#: Budget, in decimal digits, on what one pass of a root certification builds
#: unless its call passes another ``max_digits``; the ``--max-digits`` default.
DEFAULT_MAX_DIGITS = 2_000_000


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" / decimal strings, or Fractions to an exact Fraction."""
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass int, str or Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    from fractions import Fraction

    return Fraction(value)


class Params(namedtuple("Params", "a b d0")):
    """Coefficients (a, b) and seed d0 of the recursion, as exact rationals.

    Construction only coerces types; use :func:`validate_params` (or
    :func:`evaluate`, which calls it) to check the growth conditions
    b > 0, 4ab >= 1, d0 > 0.
    """

    __slots__ = ()

    def __new__(cls, a: RationalLike, b: RationalLike, d0: RationalLike = 1):
        return super().__new__(cls, as_fraction(a), as_fraction(b), as_fraction(d0))

    def is_integer(self) -> bool:
        """True when a, b and d0 are all integers (the whole orbit is then integral)."""
        return self.a.denominator == self.b.denominator == self.d0.denominator == 1


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    """Outcome of a parameter check: ok, or a tuple of named violations, each with its exact witness
    (a Fraction from :func:`validate_params`, a lowest-terms pair from :func:`recgrow.pairs.check_params`)."""

    __slots__ = ()

    def __new__(cls, ok: bool, violations: tuple[tuple[str, Fraction], ...] = ()):
        if ok != (not violations):
            raise CertificateError(f"a report with ok={ok} contradicts its {len(violations)} violation(s)")
        return super().__new__(cls, ok, violations)


class SequenceTable:
    """Exact values D(0..N) for one parameter set.

    A plain container: tables produced by :func:`evaluate` satisfy the
    recursion exactly, but nothing stops tests from hand-building broken
    tables to exercise the checkers.  Its fields cannot be reassigned.
    """

    __slots__ = ("params", "values")

    def __init__(self, params: Params, values: tuple[Fraction, ...]):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not SequenceTable:
            return NotImplemented
        return (self.params, self.values) == (other.params, other.values)

    def __hash__(self):
        return hash((self.params, self.values))

    def __repr__(self):
        return f"SequenceTable(params={self.params!r}, values={self.values!r})"

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def validate_params(a: RationalLike, b: RationalLike, d0: RationalLike = 1) -> ValidationReport:
    """Check the conditions b > 0, 4ab >= 1, d0 > 0 in exact arithmetic.

    Invalid inputs produce a failing report (with the offending exact values
    as witnesses), never an exception.
    """
    from .pairs import _fraction, _violations

    violations = _violations(*(as_fraction(v).as_integer_ratio() for v in (a, b, d0)))
    return ValidationReport(ok=not violations, violations=tuple((name, _fraction(w)) for name, w in violations))


def check_benchmark_regime(params: Params) -> None:
    """Raise InvalidParamsError outside the benchmark's regime: integer a >= 1, b >= 1 and
    seed d0 >= 1, where domination follows by induction from D(n+1) >= D(n)^2."""
    if params.a.denominator != 1 or params.b.denominator != 1 or min(params.a, params.b, params.d0) < 1:
        raise InvalidParamsError(
            f"benchmark comparison needs integer a, b >= 1 and d0 >= 1; "
            f"got ({frac_str(params.a)}, {frac_str(params.b)}, {frac_str(params.d0)})"
        )


def check_cap(n_max: int, cap: int) -> None:
    """Raise :class:`CapExceededError` when index n_max exceeds the cap."""
    if n_max > cap:
        raise CapExceededError(f"n_max={n_max} exceeds cap={cap}; term sizes grow like 2^n bits")


def evaluate(params: Params, n_max: int, cap: int = DEFAULT_CAP) -> SequenceTable:
    """Return the exact table D(0..n_max).

    Pure and deterministic.  Raises :class:`InvalidParamsError` when the
    growth conditions fail and :class:`CapExceededError` when n_max exceeds
    the cap (override ``cap`` to go further at your own memory's risk).
    """
    from .pairs import _fraction, _orbit

    values = _orbit(*(v.as_integer_ratio() for v in params), n_max, cap)
    return SequenceTable(params=params, values=tuple(map(_fraction, values)))


def is_monotone(table: SequenceTable) -> bool:
    """True iff D(n+1) >= D(n) for all n, by exact comparison (non-strict,
    so the fixed-point orbit at 4ab = 1, d0 = 1/(2b) counts as monotone)."""
    if not table.values:
        raise ValueError("empty table")
    return all(x <= y for x, y in zip(table.values, table.values[1:]))


def q_factor(params: Params, table: SequenceTable, l: int) -> Fraction:
    """Slack factor Q(l) = 1 + a/(b*D(l)^2) of the bilateral bounds; strictly > 1 since a > 0."""
    if l < 1:
        raise ValueError(f"need l >= 1, got l={l}")
    if l > table.n_max:
        raise IndexError(f"index {l} outside table range 0..{table.n_max}")
    from .pairs import _cancel, _fraction, _next_numerator

    (an, ad), (bn, bd), (p, q) = (v.as_integer_ratio() for v in (params.a, params.b, table[l]))
    u = _next_numerator((an, ad), (bn, bd), (p, q))
    return _fraction(_cancel(u, ad * bn * p * p, an * ad * bn * bd))
