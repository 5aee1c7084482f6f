from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from recgrow import (
    Params,
    PowerFamily,
    PowerNonlinearity,
    ToleranceUnachievableError,
    closed_form_lower,
    envelope,
    evaluate,
    iterate_family,
    lower_bound,
    verify_sandwich,
)
from recgrow.roots import digit_budget

F = Fraction

SQUARE_PLUS_ONE = PowerFamily(power=2, alpha=F(1), beta=F(1))


def _pn(c1, c2, delta, family=SQUARE_PLUS_ONE):
    return PowerNonlinearity(c1=F(c1), c2=F(c2), delta=F(delta), family=family)


def test_sandwich_accepts_square_plus_one():
    report = verify_sandwich(_pn(1, 2, 1), [1, 2, 5, 26], range(4))
    assert report.ok


def test_sandwich_rejects_tight_upper_claim():
    # z^2 + 1 > z^2 at every z, so C2 = 1 fails everywhere
    report = verify_sandwich(_pn(1, 1, 1), [1, 2, 5, 26], range(2))
    assert not report.ok
    assert len(report.violations) == 8
    assert all("F <= C2" in name for name, _ in report.violations)
    assert all(residual > 0 for _, residual in report.violations)


def test_sandwich_accepts_quadratic_recursion_case():
    family = PowerFamily(power=2, alpha=F(9), beta=F(1))
    report = verify_sandwich(_pn(9, 10, 1, family), [1, 2, F(5, 2), 10, 901], range(3))
    assert report.ok


def test_sandwich_rational_delta_is_decidable():
    # z^2 against exponent 3/2: holds on a bounded sample set for C2 large
    family = PowerFamily(power=2, alpha=F(1), beta=F(0))
    report = verify_sandwich(_pn(1, 6, F(1, 2), family), [1, 2, 5, 30], range(2))
    assert report.ok
    report = verify_sandwich(_pn(1, 6, F(1, 2), family), [1, 2, 5, 37], range(2))
    assert not report.ok  # 37^2 > 6*37^(3/2)


def test_sandwich_argument_errors():
    with pytest.raises(ValueError):
        verify_sandwich(_pn(1, 2, 1), [], range(2))
    with pytest.raises(ValueError):
        verify_sandwich(_pn(1, 2, 1), [F(1, 2)], range(2))


def test_envelope_reference_run():
    pair = envelope(_pn(1, 2, 1), 2, 6)
    orbit = iterate_family(SQUARE_PLUS_ONE, 2, 6)
    assert pair.exact
    assert [int(v) for v in pair.lower[:4]] == [2, 4, 16, 256]
    assert [int(v) for v in pair.upper[:4]] == [2, 8, 128, 32768]
    assert [int(v) for v in orbit[:4]] == [2, 5, 26, 677]
    for n in range(7):
        assert pair.lower[n] <= orbit[n] <= pair.upper[n]


def test_envelope_collapses_when_sandwich_is_tight():
    b = F(3)
    family = PowerFamily(power=2, alpha=b, beta=F(0))
    pair = envelope(_pn(b, b, 1, family), 2, 5)
    orbit = iterate_family(family, 2, 5)
    assert pair.lower == orbit == pair.upper


def test_envelope_guards_the_regime():
    with pytest.raises(ValueError):
        envelope(_pn(1, 2, 1), F(1, 2), 3)  # seed below 1
    with pytest.raises(ValueError):
        envelope(_pn(F(1, 2), 2, 1), 1, 3)  # lower map dips below 1


def test_envelope_noninteger_delta_brackets_outward():
    pair = envelope(_pn(1, 2, F(1, 2)), 2, 4, root_digits=25)
    assert not pair.exact
    # directed rounding: (L(n+1)/c1)^2 <= L(n)^3 and (U(n+1)/c2)^2 >= U(n)^3
    for n in range(4):
        assert (pair.lower[n + 1] / 1) ** 2 <= pair.lower[n] ** 3
        assert (pair.upper[n + 1] / 2) ** 2 >= pair.upper[n] ** 3
    # cross-check against high-precision powers
    mp.dps = 60
    lo_true, up_true = mpf(2), mpf(2)
    for _ in range(4):
        lo_true = lo_true ** mpf(1.5)
        up_true = 2 * up_true ** mpf(1.5)
    assert float(pair.lower[4]) == pytest.approx(float(lo_true), rel=1e-12)
    assert float(pair.upper[4]) == pytest.approx(float(up_true), rel=1e-12)


def test_closed_form_reference_values():
    assert closed_form_lower(_pn(1, 2, 1), 2, 3) == 256
    assert closed_form_lower(_pn(1, 2, 2), 2, 2) == 512  # exponent (1+2)^2 = 9


def test_closed_form_specializes_to_quadratic_lower_bound():
    p = Params(1, 9)
    table = evaluate(p, 6)
    pn = _pn(9, 10, 1, PowerFamily(power=2, alpha=F(9), beta=F(1)))
    for l in (1, 2):
        for k in (1, 2, 3):
            assert closed_form_lower(pn, table[l], k) == lower_bound(p, table, k, l)


def test_closed_form_matches_iteration():
    for delta in (1, 2, 3):
        pn = _pn(2, 2, delta)
        z = F(3, 2)
        current = z
        for k in range(1, 6):
            current = F(2) * current ** (1 + delta)
            assert closed_form_lower(pn, z, k) == current


def test_closed_form_noninteger_delta_returns_bracket():
    pn = _pn(2, 3, F(1, 2))
    lo, hi = closed_form_lower(pn, 2, 2, root_digits=30)
    assert lo < hi
    # truth: 2^((1.5^2-1)/0.5) * 2^(1.5^2) = 2^2.5 * 2^2.25
    mp.dps = 50
    truth = mpf(2) ** mpf("2.5") * mpf(2) ** mpf("2.25")
    assert float(lo) <= float(truth) <= float(hi)
    assert hi - lo < F(1, 10 ** 20)


def test_noninteger_powers_share_the_digit_budget():
    # roots' one budget covers general too: its default applies outside any
    # digit_budget block, and a pass over it is refused before it is built
    pn = _pn(2, 3, F(3, 5))
    with pytest.raises(ToleranceUnachievableError, match="over the 2000000-digit budget"):
        closed_form_lower(pn, 2, 3, root_digits=10 ** 6)
    with digit_budget(100):
        with pytest.raises(ToleranceUnachievableError, match="over the 100-digit budget"):
            envelope(pn, 2, 2)


def test_per_step_coefficient_tables():
    family = PowerFamily(power=2, alpha=(F(1), F(2)), beta=(F(0), F(1)))
    assert family.apply(0, F(3)) == 9
    assert family.apply(1, F(3)) == 19
    with pytest.raises(IndexError):
        family.apply(2, F(3))
    orbit = iterate_family(family, 1, 2)
    assert list(orbit) == [1, 1, 3]


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        _pn(2, 1, 1)  # C1 > C2
    with pytest.raises(ValueError):
        _pn(1, 2, 0)  # delta must be positive
    with pytest.raises(ValueError):
        PowerFamily(power=0, alpha=F(1), beta=F(1))


_POSITIVE = st.builds(F, st.integers(1, 8), st.integers(1, 4))
_NONNEGATIVE = st.builds(F, st.integers(0, 8), st.integers(1, 4))


@st.composite
def _envelope_cases(draw):
    """A family, claimed constants (C1, C2, delta), seed, n_max and root digits.

    C1 and C2 start from min F/z^ceil(1+delta) and max F/z^floor(1+delta) over
    the orbit, which bracket F/z^(1+delta) for z >= 1, and are then scaled by
    a random factor that may break the sandwich claim."""
    power = draw(st.integers(1, 3))
    n_max = draw(st.integers(1, 4))
    if draw(st.booleans()):
        alpha, beta = draw(_POSITIVE), draw(_NONNEGATIVE)
    else:
        alpha = tuple(draw(st.lists(_POSITIVE, min_size=n_max, max_size=n_max)))
        beta = tuple(draw(st.lists(_NONNEGATIVE, min_size=n_max, max_size=n_max)))
    family = PowerFamily(power=power, alpha=alpha, beta=beta)
    delta = draw(st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(3, 5), F(3, 2), F(5, 3)]))
    d0 = 1 + draw(st.integers(0, 8)) * F(1, draw(st.integers(1, 4)))
    orbit = iterate_family(family, d0, n_max)
    assume(min(orbit) >= 1)  # the sandwich is claimed for z >= 1 only
    e = 1 + delta
    ratios = [(family.apply(n, z), z) for n in range(n_max) for z in sorted(set(orbit) | {F(1)})]
    c1 = min(f / z ** -(-e.numerator // e.denominator) for f, z in ratios) * F(draw(st.integers(1, 6)), 4)
    c2 = max(f / z ** (e.numerator // e.denominator) for f, z in ratios) * F(draw(st.integers(2, 8)), 4)
    assume(0 < c1 <= c2)
    pn = PowerNonlinearity(c1=c1, c2=c2, delta=delta, family=family)
    return pn, d0, n_max, draw(st.integers(1, 30))


@settings(max_examples=100, deadline=None)
@given(_envelope_cases())
def test_envelope_contains_the_orbit(case):
    pn, d0, n_max, digits = case
    orbit = iterate_family(pn.family, d0, n_max)
    # as the general command does: only a sandwich that holds on the orbit is enveloped
    assume(verify_sandwich(pn, sorted(set(orbit) | {F(1)}), range(n_max)).ok)
    try:
        pair = envelope(pn, d0, n_max, root_digits=digits)
    except ValueError:
        assume(False)  # the lower envelope left the z >= 1 regime
    e = 1 + pn.delta
    u, v = e.numerator, e.denominator
    assert pair.exact == (v == 1)
    for n in range(n_max + 1):
        assert pair.lower[n] <= orbit[n] <= pair.upper[n]
    # directed rounding, exactly: (L(n+1)/C1)^v <= L(n)^u and (U(n+1)/C2)^v >= U(n)^u
    for n in range(n_max):
        assert (pair.lower[n + 1] / pn.c1) ** v <= pair.lower[n] ** u
        assert (pair.upper[n + 1] / pn.c2) ** v >= pair.upper[n] ** u
