import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recgrow.roots as roots
from recgrow import ToleranceUnachievableError
from recgrow.recurrence import DEFAULT_MAX_DIGITS
from recgrow.general import pow_lower, pow_upper
from recgrow.growth import digits_for
from recgrow.roots import nth_root_lower, nth_root_upper, pow_cmp

F = Fraction


def floor_nth_root(x: int, n: int) -> int:
    """Largest r with r^n <= x, for x >= 0, n >= 1: the exact oracle.

    Integer Newton iteration from above on the whole radicand, then clamped;
    the final adjustment loops make the result exact regardless of how the
    iteration landed.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")
    if n == 1 or x in (0, 1):
        return x
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) >= true root
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def ceil_nth_root(x: int, n: int) -> int:
    """Smallest r with r^n >= x, for x >= 0, n >= 1."""
    r = floor_nth_root(x, n)
    return r if r ** n == x else r + 1


def floor_pow2_root(x: int, l: int) -> int:
    """floor(x^(1/2^l)) by l composed floor square roots."""
    for _ in range(l):
        x = math.isqrt(x)
    return x


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


#: The orders 2^l, l <= 9, that growth takes, beyond the small orders n <= 12.
_POW2_ORDERS = [2 ** l for l in range(10)]


@st.composite
def _root_cases(draw):
    """(x, n, m, digits) with n <= 12 or n = 2^l, l <= 9, and m <= 9: random
    rationals, and values x = t^n whose power x^(m/n) = t^m is a grid point,
    nudged by a tiny amount or not at all."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from(_POW2_ORDERS)))
    m = draw(st.integers(1, 9))
    digits = draw(st.integers(0, 30))
    magnitude = st.integers(0, 40).map(lambda k: 10 ** k)
    if draw(st.booleans()):
        x = F(draw(st.integers(0, draw(magnitude))), draw(st.integers(1, draw(magnitude))))
    else:
        t = F(draw(st.integers(0, 10 ** (digits // m + 3))), 10 ** (digits // m))
        nudge = draw(st.sampled_from([-1, 0, 1])) * F(1, draw(magnitude))
        x = max(F(0), t ** n + nudge)
    return x, n, m, digits


@settings(max_examples=400, deadline=None)
@given(_root_cases())
def test_pow2_roots_match_exact_radicand(case):
    # every order n <= 12, the orders 2^l up to 512, and rational powers
    # x^(m/n) without forming x^m
    x, n, m, digits = case
    assert nth_root_lower(x, n, digits) == _exact_lower(x, n, digits)
    assert nth_root_upper(x, n, digits) == _exact_upper(x, n, digits)
    exponent = F(m, n)
    if exponent.denominator > 1:
        assert pow_lower(x, exponent, digits) == _exact_lower(x ** m, n, digits)
        assert pow_upper(x, exponent, digits) == _exact_upper(x ** m, n, digits)


@pytest.mark.parametrize(
    "x, exponent",
    [(F(3), F(1001, 2)), (F(7, 5), F(4001, 3)), (F(5, 7), F(20001, 5)), (F(10 ** 30 + 1, 3), F(301, 11))],
)
def test_large_exponent_numerators_match_exact_radicand(x, exponent):
    # the candidate sizes its precision from x^m itself: an estimate of
    # m*log2(x) from bit lengths alone can be off by m bits, far more than
    # the guard bits once m/n is large
    m, n = exponent.numerator, exponent.denominator
    for digits in (0, 10, 30):
        lower = _exact_lower(x ** m, n, digits)
        candidate = roots._root_candidate(x, n, digits, m, DEFAULT_MAX_DIGITS)
        assert abs(candidate - lower.numerator * 10 ** digits // lower.denominator) <= 2
        assert pow_lower(x, exponent, digits) == lower
        assert pow_upper(x, exponent, digits) == _exact_upper(x ** m, n, digits)


def test_exact_hits_of_large_powers_stop_doubling_at_the_exact_size(monkeypatch):
    # x^(2224/37) = 3^2224 exactly: the last pass runs at the bit length of
    # the largest exact power, not at the next doubling past it, which would
    # be over the default budget
    x = F(3) ** 37
    assert pow_lower(x, F(2224, 37), 5) == 3 ** 2224 == pow_upper(x, F(2224, 37), 5)
    precs = []
    bracket = roots._pow_bracket
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, n, prec: precs.append(prec) or bracket(v, n, prec))
    base = F(123456789, 10 ** 9)
    assert pow_cmp(base, 2 ** 8, base ** (2 ** 8)) == 0
    assert max(precs) == 2 ** 8 * 30  # 30 = bits of the larger of 123456789 and 10^9


def test_exact_hits_of_large_powers_fit_the_budget():
    # x^(3001/37) = 3^3001 exactly: the passes that double towards the exact
    # powers are charged for the powers they build, which stay far smaller
    # than the working precision times the step count
    x = F(3) ** 37
    assert pow_lower(x, F(3001, 37), 5) == 3 ** 3001 == pow_upper(x, F(3001, 37), 5)


@pytest.mark.parametrize("l", range(10))
def test_pow2_exact_hits_are_decided_exactly(l):
    n = 2 ** l
    for base in (F(3, 2), F(1, 5), F(1)):
        x = base ** n
        assert pow_cmp(base, n, x) == 0
        nudge = x / 10 ** 50
        assert pow_cmp(base, n, x + nudge) == -1
        assert pow_cmp(base, n, x - nudge) == 1
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
    candidate = roots._root_candidate
    monkeypatch.setattr(
        roots,
        "_root_candidate",
        lambda x, n, digits, m, max_digits: max(0, candidate(x, n, digits, m, max_digits) + offset),
    )
    rng = random.Random(7)
    for _ in range(40):
        x = F(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 20))
        n = rng.choice(sorted(set(range(1, 13)) | set(_POW2_ORDERS)))
        m, digits = rng.randint(1, 9), rng.randint(0, 25)
        assert nth_root_lower(x, n, digits) == _exact_lower(x, n, digits)
        assert nth_root_upper(x, n, digits) == _exact_upper(x, n, digits)
        if F(m, n).denominator > 1:
            assert pow_lower(x, F(m, n), digits) == _exact_lower(x ** m, n, digits)
            assert pow_upper(x, F(m, n), digits) == _exact_upper(x ** m, n, digits)


def test_pow2_cmp_doubling_stops_at_the_digit_budget(monkeypatch):
    # an exact hit with a 30-bit base needs about 2^8 * 30 bits before the
    # brackets stop rounding; under a smaller budget the doubling must raise
    # before any pass builds more than the budget allows
    base, l = F(123456789, 10 ** 9), 8
    x = base ** (2 ** l)
    precs = []
    bracket = roots._pow_bracket
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, n, prec: precs.append(prec) or bracket(v, n, prec))
    with pytest.raises(ToleranceUnachievableError, match="over the 2000-digit budget"):
        pow_cmp(base, 2 ** l, x, max_digits=2000)
    assert len(set(precs)) > 1 and max(2 * l * p for p in precs) * 30103 // 100000 + 1 <= 2000
    assert pow_cmp(base, 2 ** l, x, max_digits=10 ** 6) == 0
    assert pow_cmp(base, 2 ** l, x) == 0  # the default budget


def test_pow2_root_candidate_checks_the_budget_first(monkeypatch):
    bracket = roots._pow_bracket

    def guarded_bracket(v, n, prec):
        # only the magnitude estimate of x^m, at the guard width, may precede the check
        if prec > roots._GUARD_BITS:
            pytest.fail("power taken over budget")
        return bracket(v, n, prec)

    monkeypatch.setattr(roots, "_pow_bracket", guarded_bracket)
    monkeypatch.setattr(roots.math, "isqrt", lambda m: pytest.fail("square root taken over budget"))
    for call in (
        lambda: nth_root_lower(F(2), 2 ** 10, 50, max_digits=100),
        lambda: nth_root_upper(F(2), 3 * 2 ** 10, 50, max_digits=100),
        lambda: roots._grid_bound(F(3), 3, 50, 1001, False, 100),
    ):
        with pytest.raises(ToleranceUnachievableError):
            call()


@pytest.mark.parametrize("o", [1001, 5 ** 8, 3 ** 13])
def test_odd_roots_of_large_order_take_few_powers(monkeypatch, o):
    # general documents and closed_form_lower (delta = 3/5 gives order 5^k) take
    # roots of large odd order; Newton steps from far above the root shrink it
    # only by about (o-1)/o each, so the seed must start near the root or the
    # number of powers grows with o
    calls = []
    bracket = roots._pow_bracket
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, n, prec: calls.append(n) or bracket(v, n, prec))
    lower, upper = pow_lower(F(2), F(2, o), 20), pow_upper(F(2), F(2, o), 20)
    assert 1 < lower and lower + F(1, 10 ** 20) == upper
    assert len(calls) <= 400
