import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recgrow.roots as roots
from recgrow import ToleranceUnachievableError
from recgrow.roots import (
    ceil_nth_root,
    digits_for,
    floor_nth_root,
    floor_pow2_root,
    nth_root_lower,
    nth_root_upper,
    pow2_cmp,
    pow_lower,
    pow_upper,
)

F = Fraction


def test_floor_root_edges():
    assert floor_nth_root(0, 5) == 0
    assert floor_nth_root(1, 5) == 1
    assert floor_nth_root(31, 5) == 1
    assert floor_nth_root(32, 5) == 2
    assert floor_nth_root(7, 1) == 7
    with pytest.raises(ValueError):
        floor_nth_root(-1, 2)
    with pytest.raises(ValueError):
        floor_nth_root(4, 0)


def test_floor_root_randomized():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(1, 11)
        x = rng.randint(0, 10 ** rng.randint(1, 50))
        r = floor_nth_root(x, n)
        assert r ** n <= x < (r + 1) ** n


def test_ceil_root():
    assert ceil_nth_root(27, 3) == 3
    assert ceil_nth_root(28, 3) == 4
    assert ceil_nth_root(0, 4) == 0
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        x = rng.randint(1, 10 ** 30)
        r = ceil_nth_root(x, n)
        assert (r - 1) ** n < x <= r ** n


def test_pow2_root_matches_general_root():
    rng = random.Random(321)
    for _ in range(100):
        l = rng.randint(1, 6)
        x = rng.randint(0, 10 ** 40)
        assert floor_pow2_root(x, l) == floor_nth_root(x, 2 ** l)


def test_rational_root_brackets():
    rng = random.Random(12)
    for _ in range(60):
        x = F(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 6))
        n = rng.randint(2, 9)
        digits = rng.randint(1, 25)
        lo = nth_root_lower(x, n, digits)
        hi = nth_root_upper(x, n, digits)
        assert lo ** n <= x <= hi ** n
        assert hi - lo <= 2 * F(1, 10 ** digits)


def test_exact_roots_hit_the_grid_point():
    assert nth_root_lower(F(25), 2, 6) == 5 == nth_root_upper(F(25), 2, 6)
    assert nth_root_lower(F(1, 8), 3, 4) == F(1, 2) == nth_root_upper(F(1, 8), 3, 4)


def test_pow_bounds():
    # integer exponents are exact, no rounding
    assert pow_lower(F(3, 2), F(4), 1) == F(81, 16) == pow_upper(F(3, 2), F(4), 1)
    # 2^(3/2) = 2.8284271247461903...
    lo = pow_lower(F(2), F(3, 2), 12)
    hi = pow_upper(F(2), F(3, 2), 12)
    assert lo ** 2 <= F(2) ** 3 <= hi ** 2
    assert hi - lo <= 2 * F(1, 10 ** 12)
    assert str(lo).startswith("1414213562373/") or lo == F(2828427124746, 10 ** 12)
    with pytest.raises(ValueError):
        pow_lower(F(2), F(-1, 2), 5)


def test_digits_for():
    assert digits_for(F(1)) == 0
    assert digits_for(F(3, 10)) == 1
    assert digits_for(F(1, 1000)) == 3
    assert digits_for(F(1, 999)) == 3
    assert digits_for(F(1, 1001)) == 4
    # exact adjustment must survive a huge magnitude gap
    assert digits_for(F(1, 10 ** 500)) == 500
    with pytest.raises(ValueError):
        digits_for(F(0))


def _exact_lower(x, n, digits):
    # the exact-radicand oracle: floor n-th root of x * 10^(digits*n), built in full
    scale = 10 ** digits
    return F(floor_nth_root(x.numerator * scale ** n // x.denominator, n), scale)


def _exact_upper(x, n, digits):
    scale = 10 ** digits
    ceil_scaled = -((-x.numerator * scale ** n) // x.denominator)
    return F(ceil_nth_root(ceil_scaled, n), scale)


@st.composite
def _pow2_root_cases(draw):
    """(x, l, digits) with l <= 9: random rationals, and grid points raised to
    the 2^l-th power and nudged by a tiny amount or not at all."""
    l = draw(st.integers(0, 9))
    digits = draw(st.integers(0, 30))
    magnitude = st.integers(0, 40).map(lambda k: 10 ** k)
    if draw(st.booleans()):
        x = F(draw(st.integers(0, draw(magnitude))), draw(st.integers(1, draw(magnitude))))
    else:
        r = draw(st.integers(0, 10 ** (digits + 3)))
        nudge = draw(st.sampled_from([-1, 0, 1])) * F(1, draw(magnitude))
        x = max(F(0), F(r, 10 ** digits) ** (2 ** l) + nudge)
    return x, l, digits


@settings(max_examples=300, deadline=None)
@given(_pow2_root_cases())
def test_pow2_roots_match_exact_radicand(case):
    x, l, digits = case
    n = 2 ** l
    assert nth_root_lower(x, n, digits) == _exact_lower(x, n, digits)
    assert nth_root_upper(x, n, digits) == _exact_upper(x, n, digits)


@pytest.mark.parametrize("l", range(10))
def test_pow2_exact_hits_are_decided_exactly(l):
    n = 2 ** l
    for base in (F(3, 2), F(1, 5), F(1)):
        x = base ** n
        assert pow2_cmp(base, l, x) == 0
        nudge = x / 10 ** 50
        assert pow2_cmp(base, l, x + nudge) == -1
        assert pow2_cmp(base, l, x - nudge) == 1
        for digits in (1, 2, 17):
            assert nth_root_lower(x, n, digits) == base == nth_root_upper(x, n, digits)
    for digits in (0, 5):
        assert nth_root_lower(F(0), n, digits) == 0 == nth_root_upper(F(0), n, digits)
        # root 10^-60, below one grid step
        tiny = F(1, 10 ** (60 * n))
        assert nth_root_lower(tiny, n, digits) == 0
        assert nth_root_upper(tiny, n, digits) == F(1, 10 ** digits)


@pytest.mark.parametrize("offset", [-3, 3])
def test_pow2_roots_recover_from_a_bad_candidate(monkeypatch, offset):
    candidate = roots._pow2_root_candidate
    monkeypatch.setattr(roots, "_pow2_root_candidate", lambda x, l, digits: max(0, candidate(x, l, digits) + offset))
    rng = random.Random(7)
    for _ in range(40):
        x = F(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 20))
        l, digits = rng.randint(1, 9), rng.randint(0, 25)
        n = 2 ** l
        assert nth_root_lower(x, n, digits) == _exact_lower(x, n, digits)
        assert nth_root_upper(x, n, digits) == _exact_upper(x, n, digits)


def test_pow2_cmp_doubling_stops_at_the_digit_budget(monkeypatch):
    # an exact hit with a 30-bit base needs about 2^8 * 30 bits before the
    # brackets stop rounding; under a smaller budget the doubling must raise
    # before any pass builds more than the budget allows
    base, l = F(123456789, 10 ** 9), 8
    x = base ** (2 ** l)
    precs = []
    bracket = roots._pow2_bracket
    monkeypatch.setattr(roots, "_pow2_bracket", lambda v, l, prec: precs.append(prec) or bracket(v, l, prec))
    with roots.digit_budget(2000):
        with pytest.raises(ToleranceUnachievableError, match="over the 2000-digit budget"):
            pow2_cmp(base, l, x)
    assert len(set(precs)) > 1 and max(2 * l * p for p in precs) * 30103 // 100000 + 1 <= 2000
    with roots.digit_budget(10 ** 6):
        assert pow2_cmp(base, l, x) == 0
    assert pow2_cmp(base, l, x) == 0  # no budget outside the block


def test_pow2_root_candidate_checks_the_budget_first(monkeypatch):
    monkeypatch.setattr(roots.math, "isqrt", lambda m: pytest.fail("square root taken over budget"))
    with roots.digit_budget(100):
        with pytest.raises(ToleranceUnachievableError):
            nth_root_lower(F(2), 2 ** 10, 50)
