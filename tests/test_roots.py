import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import recgrow.roots as roots
from recgrow import ToleranceUnachievableError
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
        l = rng.choice([1, 2, 3])
        digits = rng.randint(1, 25)
        lo = nth_root_lower(x, l, digits)
        hi = nth_root_upper(x, l, digits)
        assert lo ** 2 ** l <= x <= hi ** 2 ** l
        assert hi - lo <= 2 * F(1, 10 ** digits)


def test_exact_roots_hit_the_grid_point():
    assert nth_root_lower(F(25), 1, 6) == 5 == nth_root_upper(F(25), 1, 6)
    assert nth_root_lower(F(1, 16), 2, 4) == F(1, 2) == nth_root_upper(F(1, 16), 2, 4)


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


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 3000), delta=st.sampled_from([-1, 0, 1]), num=st.integers(1, 10 ** 40))
@example(k=1, delta=-1, num=1)  # 1/9
@example(k=0, delta=1, num=1)  # 1/2
def test_digits_for_at_powers_of_ten(k, delta, num):
    # den/num lies just below, on or just above 10^k, where the answer steps from k to k + 1; growth passes
    # its target as an unreduced pair, so both forms are checked
    den = num * 10 ** k + delta
    assume(den > 0)
    assert digits_for(F(num, den)) == digits_for((num, den)) == k + (delta > 0)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 10 ** 30), twos=st.integers(0, 40), fives=st.integers(0, 40), digits=st.integers(0, 40))
def test_grid_pair_is_the_fraction_in_lowest_terms(m, twos, fives, digits):
    # a grid numerator with any powers of 2 and 5, more or fewer than the grid's
    r = (m << twos) * 5 ** fives
    x = F(r, 10 ** digits)
    assert roots._grid_pair(r, digits) == (x.numerator, x.denominator)


def _exact_lower(x, n, digits):
    # the exact-radicand oracle: floor n-th root of x * 10^(digits*n), built in full
    scale = 10 ** digits
    return F(floor_nth_root(x.numerator * scale ** n // x.denominator, n), scale)


def _exact_upper(x, n, digits):
    scale = 10 ** digits
    ceil_scaled = -((-x.numerator * scale ** n) // x.denominator)
    return F(ceil_nth_root(ceil_scaled, n), scale)


@st.composite
def _root_cases(draw):
    """(x, l, digits) with l <= 9: random rationals, and values x = t^(2^l)
    whose root t is a grid point, nudged by a tiny amount or not at all."""
    l = draw(st.integers(0, 9))
    n = 2 ** l
    digits = draw(st.integers(0, 30))
    magnitude = st.integers(0, 40).map(lambda k: 10 ** k)
    if draw(st.booleans()):
        x = F(draw(st.integers(0, draw(magnitude))), draw(st.integers(1, draw(magnitude))))
    else:
        t = F(draw(st.integers(0, 10 ** (digits + 3))), 10 ** digits)
        nudge = draw(st.sampled_from([-1, 0, 1])) * F(1, draw(magnitude))
        x = max(F(0), t ** n + nudge)
    return x, l, digits


@settings(max_examples=400, deadline=None)
@given(_root_cases())
def test_pow2_roots_match_exact_radicand(case):
    x, l, digits = case
    assert nth_root_lower(x, l, digits) == _exact_lower(x, 2 ** l, digits)
    assert nth_root_upper(x, l, digits) == _exact_upper(x, 2 ** l, digits)


@settings(max_examples=400, deadline=None)
@given(_root_cases())
@example((F(1, 5) ** 2 ** 3, 3, 4))  # an exact power, where the candidate lands one below
@example((F(2), 3, 4))
def test_root_candidate_is_the_floor_or_one_below(case):
    # the proven bracket rho - 2 < r <= rho, against the exact oracle's floor(rho)
    x, l, digits = case
    floor_rho = _exact_lower(x, 2 ** l, digits) * 10 ** digits
    r = roots._root_candidate(x.as_integer_ratio(), l, digits, roots.DEFAULT_MAX_DIGITS)
    assert floor_rho - 1 <= r <= floor_rho


@pytest.mark.parametrize("x, candidate, floor", [(F(1, 5) ** 2 ** 3, 1999, 2000), (F(2), 10905, 10905)])
def test_floor_point_takes_both_outcomes_of_the_decision(x, candidate, floor):
    # an exact power's candidate lands one below the floor, 2^(1/8)'s on it; one comparison tells which
    pair = x.as_integer_ratio()
    assert roots._root_candidate(pair, 3, 4, roots.DEFAULT_MAX_DIGITS) == candidate
    assert roots._floor_point(pair, 3, 4, roots.DEFAULT_MAX_DIGITS) == floor == _exact_lower(x, 8, 4) * 10 ** 4


def test_exact_hits_of_large_powers_stop_doubling_at_the_exact_size(monkeypatch):
    # the last pass runs at the bit length of the exact powers, not at the
    # next doubling past it
    precs = []
    bracket = roots._pow_bracket
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, l, prec: precs.append(prec) or bracket(v, l, prec))
    base = F(123456789, 10 ** 9)
    assert pow_cmp(base, 8, base ** (2 ** 8)) == 0
    assert max(precs) == 2 ** 8 * 30  # 30 = bits of the larger of 123456789 and 10^9


@pytest.mark.parametrize("l", range(10))
def test_pow2_exact_hits_are_decided_exactly(l):
    n = 2 ** l
    for base in (F(3, 2), F(1, 5), F(1)):
        x = base ** n
        assert pow_cmp(base, l, x) == 0
        nudge = x / 10 ** 50
        assert pow_cmp(base, l, x + nudge) == -1
        assert pow_cmp(base, l, x - nudge) == 1
        for digits in (1, 2, 17):
            assert nth_root_lower(x, l, digits) == base == nth_root_upper(x, l, digits)
    for digits in (0, 5):
        assert nth_root_lower(F(0), l, digits) == 0 == nth_root_upper(F(0), l, digits)
        # root 10^-60, below one grid step
        tiny = F(1, 10 ** (60 * n))
        assert nth_root_lower(tiny, l, digits) == 0
        assert nth_root_upper(tiny, l, digits) == F(1, 10 ** digits)


def test_pow2_cmp_doubling_stops_at_the_digit_budget(monkeypatch):
    # an exact hit with a 30-bit base needs about 2^8 * 30 bits before the
    # brackets stop rounding; under a smaller budget the doubling must raise
    # before any pass builds more than the budget allows
    base, l = F(123456789, 10 ** 9), 8
    x = base ** (2 ** l)
    precs = []
    bracket = roots._pow_bracket
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, l, prec: precs.append(prec) or bracket(v, l, prec))
    with pytest.raises(ToleranceUnachievableError) as refused:
        pow_cmp(base, l, x, max_digits=2000)
    assert str(refused.value) == "8 squarings and products at 752-bit precision need 2353 digits, over the 2000-digit budget"
    assert len(set(precs)) > 1 and max(2 * l * p for p in precs) * 30103 // 100000 + 1 <= 2000
    assert pow_cmp(base, l, x, max_digits=10 ** 6) == 0
    assert pow_cmp(base, l, x) == 0  # the default budget


def test_pow2_root_candidate_checks_the_budget_first(monkeypatch):
    monkeypatch.setattr(roots, "_pow_bracket", lambda v, l, prec: pytest.fail("power taken over budget"))
    monkeypatch.setattr(roots.math, "isqrt", lambda m: pytest.fail("square root taken over budget"))
    for root in (nth_root_lower, nth_root_upper):
        with pytest.raises(ToleranceUnachievableError):
            root(F(2), 10, 50, max_digits=100)


def _square_and_multiply_digits(n: int, prec: int, v_bits: int) -> tuple[int, int]:
    """(steps, digits) that square-and-multiply charges for v^n, for any n >= 1.

    Step i squares up to v^(2*(n >> i+1)) and, when bit i of n is set, multiplies
    up to v^(n >> i); a step reaching v^k builds 2*min(prec, k*v_bits) bits.
    """
    charges = [
        2 * min(prec, k * v_bits)
        for i in range(n.bit_length() - 1)
        for k in {2 * (n >> i + 1), n >> i}
    ]
    return len(charges), sum(charges) * 30103 // 100000 + 1


@pytest.mark.parametrize("l", range(11))
def test_budget_charges_the_squarings_of_square_and_multiply(l):
    # for n = 2^l square-and-multiply takes l squarings and no product: the
    # budget refuses at the same digit count, with the same words
    n = 2 ** l
    for prec, v_bits in [(64, 1), (90, 30), (128, 200), (2045, 7), (4910, 4910)]:
        steps, need = _square_and_multiply_digits(n, prec, v_bits)
        assert steps == l
        roots._check_budget(need, prec, l, v_bits)
        with pytest.raises(ToleranceUnachievableError) as refused:
            roots._check_budget(need - 1, prec, l, v_bits)
        assert str(refused.value) == (
            f"{l} squarings and products at {prec}-bit precision need {need} digits, over the {need - 1}-digit budget"
        )
