import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recgrow import (
    CapExceededError,
    InvalidParamsError,
    Params,
    SequenceTable,
    evaluate,
    is_monotone,
    q_factor,
    validate_params,
)
from recgrow.general import PowerFamily
from recgrow.matrixrec import MatrixParams

F = Fraction


def test_validate_accepts_reference_parameter_sets():
    assert validate_params(1, 9, 1).ok
    assert validate_params(1, 1, 1).ok
    # boundary of the condition: 4 * (1/4) * 1 == 1
    assert validate_params(F(1, 4), 1, 1).ok


def test_validate_rejects_small_product_with_witness():
    report = validate_params(F(1, 8), 1, 1)
    assert not report.ok
    assert report.violations == (("4ab >= 1", F(1, 2)),)


def test_validate_rejects_nonpositive_b_and_seed():
    report = validate_params(1, 0, 1)
    assert ("b > 0", F(0)) in report.violations
    report = validate_params(1, -2, -1)
    names = [name for name, _ in report.violations]
    assert "b > 0" in names and "d0 > 0" in names


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Params(0.25, 1)
    with pytest.raises(TypeError):
        validate_params(1, 1, 0.5)


@pytest.fixture
def default_int_limit():
    # the interpreter's default cap on int <-> str conversion, which Fraction(str) obeys
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_rational_strings_parse_at_any_length(default_int_limit):
    # the library takes the CLI's rational grammar, so a 5000-digit string is a value, not an error
    ones = "1" * 5000
    r = (10**5000 - 1) // 9
    assert Params(ones, 1).a == r
    assert PowerFamily(2, ones, "1").alpha == r
    assert MatrixParams([[ones]], [["1"]], [["1/" + ones]]).d0 == ((F(1, r),),)
    with pytest.raises(TypeError):
        Params(ones, 0.5)
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '1/-2'$"):
        Params("1/-2", 1)


def test_reference_values_a1_b1():
    table = evaluate(Params(1, 1), 7)
    assert [int(v) for v in table.values] == [
        1, 2, 5, 26, 677, 458330, 210066388901, 44127887745906175987802,
    ]


def test_reference_values_a1_b9():
    table = evaluate(Params(1, 9), 3)
    assert list(table.values[:3]) == [1, 10, 901]
    # 1 + 9*901^2, recomputed exactly
    assert table[3] == 7306210


def test_seed_only_table():
    table = evaluate(Params(3, F(1, 12), d0=F(7, 3)), 0)
    assert table.values == (F(7, 3),)
    assert table.n_max == 0


def test_cap_enforced_and_overridable():
    p = Params(1, 1)
    with pytest.raises(CapExceededError):
        evaluate(p, 6, cap=5)
    assert evaluate(p, 6, cap=6)[6] == 210066388901
    with pytest.raises(ValueError):
        evaluate(p, -1)


def test_invalid_params_raise_on_evaluate():
    with pytest.raises(InvalidParamsError) as exc:
        evaluate(Params(F(1, 8), 1), 3)
    assert "4ab >= 1" in str(exc.value)


def test_recursion_exactness_and_determinism():
    rng = random.Random(20240811)
    for _ in range(25):
        b = F(rng.randint(1, 40), rng.randint(1, 40))
        a = F(1, 4 * b) + F(rng.randint(0, 30), rng.randint(1, 10))
        d0 = F(rng.randint(1, 50), rng.randint(1, 50))
        p = Params(a, b, d0)
        t1 = evaluate(p, 8)
        assert all(
            t1[n + 1] - p.a - p.b * t1[n] ** 2 == 0 for n in range(8)
        )
        assert evaluate(p, 8).values == t1.values


def test_monotone_for_valid_parameters():
    rng = random.Random(7)
    for _ in range(30):
        b = F(rng.randint(1, 25), rng.randint(1, 25))
        a = F(1, 4 * b) + F(rng.randint(0, 12), rng.randint(1, 6))
        d0 = F(rng.randint(1, 30), rng.randint(1, 30))
        table = evaluate(Params(a, b, d0), 8)
        assert is_monotone(table)


def test_fixed_point_is_monotone_nonstrict():
    # discriminant zero: 4ab = 1 and d0 = 1/(2b) give a constant orbit
    table = evaluate(Params(F(1, 4), 1, d0=F(1, 2)), 6)
    assert set(table.values) == {F(1, 2)}
    assert is_monotone(table)


def test_monotone_checker_rejects_decrease():
    p = Params(1, 1)
    broken = SequenceTable(params=p, values=(F(1), F(2), F(5), F(4)))
    assert not is_monotone(broken)
    with pytest.raises(ValueError):
        is_monotone(SequenceTable(params=p, values=()))


def test_integer_parameters_stay_integral():
    table = evaluate(Params(3, 2), 10)
    assert all(v.denominator == 1 for v in table.values)


def test_bit_size_grows_at_doubling_rate():
    # bits(D(n)) stays between 2^(n-1)*c1 and 2^n*c2 with both constants
    # measured once, at the first reference index
    for a, b in [(1, 1), (1, 9), (2, 3), (3, 2)]:
        table = evaluate(Params(a, b), 12)
        c1 = F(table[3].numerator.bit_length(), 8)
        c2 = 2 * c1
        for n in range(3, 13):
            bits = table[n].numerator.bit_length()
            assert F(2 ** (n - 1)) * c1 <= bits <= F(2 ** n) * c2


_POSITIVE = st.builds(F, st.integers(1, 60), st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(b=_POSITIVE, extra=st.builds(F, st.integers(0, 40), st.integers(1, 40)), d0=_POSITIVE, n=st.integers(1, 7))
def test_orbit_pairs_are_the_fraction_orbit_in_lowest_terms(b, extra, d0, n):
    # the int core cancels only by gcds with the coefficients' parts: every term, and Q(l), must still be
    # in lowest terms, exactly the Fraction a + b*D^2 and 1 + a/(b*D^2)
    params = Params(1 / (4 * b) + extra, b, d0)
    table = evaluate(params, n)
    d = params.d0
    for l, value in enumerate(table.values):
        assert (value.numerator, value.denominator) == (d.numerator, d.denominator)
        if l:
            q = q_factor(params, table, l)
            expected = 1 + params.a / (params.b * d * d)
            assert (q.numerator, q.denominator) == (expected.numerator, expected.denominator)
        d = params.a + params.b * d * d
