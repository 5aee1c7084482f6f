"""Random valid (a, b, d0): every certificate holds and every field equals its
textbook formula, computed here with plain Fraction arithmetic only."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from recgrow import Params, certify, convergence_profile, evaluate, integer_envelope

F = Fraction

_small = st.fractions(min_value=F(1, 12), max_value=40, max_denominator=12)


@st.composite
def _params(draw):
    """Valid (a, b, d0): b > 0, 4ab >= 1, d0 > 0; integers about a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return tuple(F(draw(st.integers(1, 12))) for _ in range(3))
    b = draw(_small)
    a = 1 / (4 * b) + draw(st.one_of(st.just(F(0)), _small))  # 4ab = 1 included
    return a, b, draw(_small)


def _orbit(a, b, d0, n):
    values = [d0]
    for _ in range(n):
        values.append(a + b * values[-1] * values[-1])
    return values


@settings(max_examples=120, deadline=None)
@given(_params(), st.integers(1, 5), st.integers(1, 5))
@example((F(1), F(1), F(1)), 5, 5)
@example((F(6), F(4), F(2)), 5, 5)  # gcd(a, D(l)) > 1
@example((F(1, 4), F(1), F(1, 2)), 5, 5)  # fixed-point orbit
@example((F(3, 7), F(5, 3), F(11, 5)), 5, 5)
def test_random_certificates_match_textbook_formulas(abd, k_max, l_max):
    a, b, d0 = abd
    d = _orbit(a, b, d0, k_max + l_max)
    params = Params(a, b, d0)
    table = evaluate(params, k_max + l_max)
    certs = certify(params, k_max, l_max)
    assert [(c.k, c.l) for c in certs] == [(k, l) for k in range(1, k_max + 1) for l in range(1, l_max + 1)]
    for c in certs:
        m = 2 ** c.k
        q = 1 + a / (b * d[c.l] ** 2)
        lower = b ** (m - 1) * d[c.l] ** m
        upper = lower * q ** (m - 1)
        assert c.holds
        assert (c.q_l, c.lower, c.upper, c.actual) == (q, lower, upper, d[c.k + c.l])
        assert c.ratio == b * d[c.k + c.l] / (b * d[c.l]) ** m
        assert lower <= d[c.k + c.l] <= upper
        if all(x.denominator == 1 for x in abd):
            lo, hi = integer_envelope(params, table, c.k, c.l)
            assert (lo, hi) == (lower, upper.numerator // upper.denominator)
            assert lo <= d[c.k + c.l] <= hi
    profile = convergence_profile(params, k_max, range(1, l_max + 1))
    for l, r1, gap in profile.rows:
        m = 2 ** k_max
        assert r1 == b * d[k_max + l] / (b * d[l]) ** m - 1
        assert gap == (1 + a / (b * d[l] ** 2)) ** (m - 1) - 1
