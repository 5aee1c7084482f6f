"""Term-count model for successive-substitution (Picard) iterations.

For a d-dimensional bilinear step u_{n+1} = u_0 + G[u_n, u_n], squaring a sum
of D(n) independent summands under a d x d x d coefficient tensor yields
d^2 * D(n)^2 bilinear terms, plus the u_0 term:

    D(n+1) = 1 + d^2 * D(n)^2,    D(0) = 1,

i.e. the quadratic recursion with a = 1, b = d^2.  Counts are worst case: no
credit is taken for symmetry cancellations inside the tensor.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .errors import CertificateError
from .recurrence import DEFAULT_CAP, Params, evaluate


def _params_for(d: int) -> Params:
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    return Params(a=Fraction(1), b=Fraction(d * d), d0=Fraction(1))


def _integer_term(table, d: int, n: int) -> int:
    value = table[n]
    if value.denominator != 1:
        raise CertificateError(f"term count D({n}) for d={d} is not an integer")
    return value.numerator


def term_count(d: int, n: int, cap: int = DEFAULT_CAP) -> int:
    """Independent summands in the n-th iterate for spatial dimension d."""
    return _integer_term(evaluate(_params_for(d), n, cap=cap), d, n)


def summand_budget(d: int, n: int, cap: int = DEFAULT_CAP) -> int:
    """Bilinear-term count d^2 * D(n)^2 before adding the u_0 term.

    Equals term_count(d, n+1) - 1.
    """
    return d * d * term_count(d, n, cap=cap) ** 2


class NsModel(namedtuple("NsModel", "d iterations bytes_per_term")):
    """Inputs for a cost projection: dimension, iteration depth, bytes/term."""

    __slots__ = ()

    def __new__(cls, d: int, iterations: int, bytes_per_term: int = 16):
        if d < 1:
            raise ValueError(f"dimension d must be >= 1, got {d}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if bytes_per_term < 1:
            raise ValueError(f"bytes_per_term must be >= 1, got {bytes_per_term}")
        return super().__new__(cls, d, iterations, bytes_per_term)


class CostRow(namedtuple("CostRow", "n terms projected_bytes")):
    __slots__ = ()


class CostProjection(namedtuple("CostProjection", "model rows budget first_over_budget")):
    __slots__ = ()


def cost_projection(model: NsModel, budget: Optional[int] = None, cap: int = DEFAULT_CAP) -> CostProjection:
    """Rows (n, term count, bytes) for n = 1..iterations, exact arithmetic.

    When a byte budget is given, ``first_over_budget`` is the smallest n whose
    projection exceeds it (None if none does).
    """
    table = evaluate(_params_for(model.d), model.iterations, cap=cap)
    rows = []
    first_over = None
    for n in range(1, model.iterations + 1):
        terms = _integer_term(table, model.d, n)
        projected = terms * model.bytes_per_term
        rows.append(CostRow(n=n, terms=terms, projected_bytes=projected))
        if budget is not None and first_over is None and projected > budget:
            first_over = n
    return CostProjection(model=model, rows=tuple(rows), budget=budget, first_over_budget=first_over)


# Widely circulated reference table for the d = 3 case.  Entries from n = 3
# onward are inconsistent with the defining recursion: 811802 = 901^2 + 1,
# i.e. the continuation was computed with quadratic coefficient 1 instead of
# d^2 = 9, and the later entries (including the two approximate ones) keep
# squaring that slip.
PUBLISHED_3D_EXACT = (1, 10, 901, 811802, 659022487205, 434310638641864388712026)
PUBLISHED_3D_APPROX = {6: "1.886257308e47", 7: "3.5579666e94"}


class DiscrepancyRow(namedtuple("DiscrepancyRow", "n published published_exact recomputed matches")):
    """One published-vs-recomputed comparison; ``matches`` is None when the
    published figure is only approximate."""

    __slots__ = ()


def published_3d_discrepancies(cap: int = DEFAULT_CAP) -> tuple[DiscrepancyRow, ...]:
    """Compare the published d = 3 table against exact recomputation."""
    table = evaluate(_params_for(3), max(PUBLISHED_3D_APPROX), cap=cap)
    rows = []
    for n, pub in (*enumerate(PUBLISHED_3D_EXACT), *PUBLISHED_3D_APPROX.items()):
        recomputed = _integer_term(table, 3, n)
        exact = isinstance(pub, int)
        rows.append(DiscrepancyRow(n, str(pub), exact, recomputed, pub == recomputed if exact else None))
    return tuple(rows)
