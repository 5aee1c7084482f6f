from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recgrow import (
    Params,
    PowerFamily,
    InvalidParamsError,
    PowerNonlinearity,
    closed_form_lower,
    envelope,
    evaluate,
    iterate_family,
    lower_bound,
    verify_sandwich,
)

F = Fraction

SQUARE_PLUS_ONE = PowerFamily(power=2, alpha=F(1), beta=F(1))


def _pn(c1, c2, delta, family=SQUARE_PLUS_ONE):
    return PowerNonlinearity(c1=F(c1), c2=F(c2), delta=F(delta), family=family)


def test_sandwich_accepts_square_plus_one():
    # (z^2 + 1)/z^2 = 1 + z^-2 runs over (1, 2] on z >= 1
    assert verify_sandwich(_pn(1, 2, 1), range(4)).ok


def test_sandwich_rejects_tight_upper_claim():
    # z^2 + 1 > z^2 at every z, so C2 = 1 fails at every step, by 1: the ratio is 2 at z = 1
    report = verify_sandwich(_pn(1, 1, 1), range(2))
    assert report.violations == (("F <= C2*z^(1+delta) at n=0", 1), ("F <= C2*z^(1+delta) at n=1", 1))


def test_sandwich_accepts_quadratic_recursion_case():
    family = PowerFamily(power=2, alpha=F(9), beta=F(1))
    assert verify_sandwich(_pn(9, 10, 1, family), range(3)).ok
    # a negative beta puts the ratio's minimum at z = 1 and its supremum, 9, out at z -> infinity
    family = PowerFamily(power=2, alpha=F(9), beta=F(-1))
    assert verify_sandwich(_pn(8, 9, 1, family), range(3)).ok
    report = verify_sandwich(_pn(9, 9, 1, family), range(1))
    assert report.violations == (("C1*z^(1+delta) <= F at n=0", 1),)


def test_sandwich_rational_delta_is_decidable():
    # z^2 against z^(3/2): the ratio z^(1/2) passes any C2, however far out, so no C2 makes the claim hold
    family = PowerFamily(power=2, alpha=F(1), beta=F(0))
    report = verify_sandwich(_pn(1, 10 ** 50, F(1, 2), family), range(2))
    assert report.violations == (("power = 1+delta", F(1, 2)),)
    # an integer delta that misses power - 1 fails too: (z^2 + 1)/z^3 tends to 0, under any C1
    assert verify_sandwich(_pn(F(1, 10 ** 50), 2, 2), range(2)).violations == (("power = 1+delta", -1),)


def test_sandwich_lower_claim_fails_at_the_limit():
    # 1 + z^-2 > C1 at every orbit value of z^2 + 1, but it tends to 1 < C1 as z grows
    c1 = 1 + F(1, 10 ** 30)
    report = verify_sandwich(_pn(c1, 2, 1), range(3))
    assert report.violations == tuple((f"C1*z^(1+delta) <= F at n={n}", F(1, 10 ** 30)) for n in range(3))


def test_sandwich_per_step_coefficients():
    # the ratio runs over (1, 2] at step 0 and over [2, 3) at step 1
    family = PowerFamily(power=2, alpha=(F(1), F(3)), beta=(F(1), F(-1)))
    assert verify_sandwich(_pn(1, 3, 1, family), range(2)).ok
    report = verify_sandwich(_pn(F(3, 2), F(5, 2), 1, family), range(2))
    assert report.violations == (("C1*z^(1+delta) <= F at n=0", F(1, 2)), ("F <= C2*z^(1+delta) at n=1", F(1, 2)))


def test_sandwich_over_no_steps():
    # no step has coefficients to bound, but the power condition holds or fails for the family as a whole
    assert verify_sandwich(_pn(1, 1, 1), range(0)).ok
    assert verify_sandwich(_pn(1, 1, F(1, 2)), range(0)).violations == (("power = 1+delta", F(1, 2)),)


_COEFF = st.builds(F, st.integers(0, 64), st.integers(1, 64))
_SIGNED_COEFF = st.builds(F, st.integers(-32, 64), st.integers(1, 64))
_MARGIN = st.builds(F, st.integers(-8, 8), st.integers(1, 64))

#: the z of the exact sampling: every integer up to 64, then powers of two out to 2^400, where every claim
#: that _sandwich_cases draws and the decision refuses shows: |p - 1 - delta| >= 1/8 puts z^(p-1-delta)
#: past 2^50 or under 2^-50, while C1, C2 and the coefficients keep denominators up to 64^3
_Z_SAMPLES = [*range(1, 65), *(2 ** j for j in range(7, 401))]


@st.composite
def _sandwich_cases(draw):
    """A family over 1-3 steps, C1 and C2 a margin of either sign away from the ends of the ratio at
    p = 1 + delta, and a delta that is power - 1 or any of denominator at most 8."""
    power, steps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        alpha, beta = draw(_COEFF), draw(_SIGNED_COEFF)
        ends = [alpha, alpha + beta]
    else:
        alpha = tuple(draw(st.lists(_COEFF, min_size=steps, max_size=steps)))
        beta = tuple(draw(st.lists(_SIGNED_COEFF, min_size=steps, max_size=steps)))
        ends = [*alpha, *(a + b for a, b in zip(alpha, beta))]
    delta = draw(st.one_of(st.just(F(power - 1)), st.builds(F, st.integers(1, 32), st.integers(1, 8))))
    c1, c2 = min(ends) - draw(_MARGIN), max(ends) + draw(_MARGIN)
    assume(delta > 0 and 0 < c1 <= c2)
    return PowerNonlinearity(c1=c1, c2=c2, delta=delta, family=PowerFamily(power, alpha, beta)), steps


def _sample_violations(pn, steps):
    """(n, z) of every sample where C1*z^(1+delta) <= F(n, z) <= C2*z^(1+delta) fails, decided exactly in the
    v-th-power domain: for 1 + delta = u/v and F >= 0 the claim is C1^v * z^u <= F^v <= C2^v * z^u."""
    e = 1 + pn.delta
    u, v = e.numerator, e.denominator
    for n in range(steps):
        for z in _Z_SAMPLES:
            f, zu = pn.family.apply(n, F(z)), z ** u
            if f < 0 or not pn.c1 ** v * zu <= f ** v <= pn.c2 ** v * zu:
                yield n, z


@settings(max_examples=80, deadline=None)
@given(_sandwich_cases())
def test_sandwich_decision_matches_exact_sampling(case):
    # a claim the decision accepts holds at every sample, and one it refuses fails at some sample
    pn, steps = case
    assert verify_sandwich(pn, range(steps)).ok == (next(_sample_violations(pn, steps), None) is None)


def test_envelope_reference_run():
    pair = envelope(_pn(1, 2, 1), 2, 6)
    orbit = iterate_family(SQUARE_PLUS_ONE, 2, 6)
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


@pytest.mark.parametrize("delta", [F(1, 2), F(3, 5), F(3, 2)])
def test_envelopes_refuse_a_non_integer_power(delta):
    # a power family meets a claim for every z >= 1 only when its integer power is 1 + delta
    pn = _pn(1, 2, delta)
    with pytest.raises(InvalidParamsError, match="1 \\+ delta must be an integer"):
        envelope(pn, 2, 4)
    with pytest.raises(InvalidParamsError, match="1 \\+ delta must be an integer"):
        closed_form_lower(pn, 2, 2)


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


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_closed_form_is_the_lower_envelope(delta):
    # closed_form_lower(pn, d0, k) is L(k) of envelope(pn, d0, n) for every k <= n
    pn = _pn(F(3, 2), 2, delta)
    d0 = F(5, 4)
    pair = envelope(pn, d0, 4)
    assert [closed_form_lower(pn, d0, k) for k in range(5)] == list(pair.lower)


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
    """A family of power 1 + delta or 2 + delta, claimed constants (C1, C2, integer delta), seed and n_max.

    C1 and C2 are min and max F/z^(1+delta) over the orbit, scaled outward
    by a random factor."""
    delta = F(draw(st.integers(1, 2)))
    e = 1 + delta
    power = int(e) + draw(st.integers(0, 1))
    n_max = draw(st.integers(1, 4))
    if draw(st.booleans()):
        alpha, beta = draw(_POSITIVE), draw(_NONNEGATIVE)
    else:
        alpha = tuple(draw(st.lists(_POSITIVE, min_size=n_max, max_size=n_max)))
        beta = tuple(draw(st.lists(_NONNEGATIVE, min_size=n_max, max_size=n_max)))
    family = PowerFamily(power=power, alpha=alpha, beta=beta)
    d0 = 1 + draw(st.integers(0, 8)) * F(1, draw(st.integers(1, 4)))
    orbit = iterate_family(family, d0, n_max)
    assume(min(orbit) >= 1)  # the sandwich is claimed for z >= 1 only
    ratios = [(family.apply(n, z), z) for n in range(n_max) for z in sorted(set(orbit) | {F(1)})]
    c1 = min(f / z ** e for f, z in ratios) * F(draw(st.integers(1, 4)), 4)
    c2 = max(f / z ** e for f, z in ratios) * F(draw(st.integers(4, 8)), 4)
    # the envelopes' induction uses the sandwich only at z = D(n), where it holds exactly
    assert all(c1 * z ** e <= f <= c2 * z ** e for f, z in ratios)
    pn = PowerNonlinearity(c1=c1, c2=c2, delta=delta, family=family)
    return pn, d0, n_max


@settings(max_examples=100, deadline=None)
@given(_envelope_cases())
def test_envelope_contains_the_orbit(case):
    pn, d0, n_max = case
    orbit = iterate_family(pn.family, d0, n_max)
    try:
        pair = envelope(pn, d0, n_max)
    except ValueError:
        assume(False)  # the lower envelope left the z >= 1 regime
    e = 1 + pn.delta
    for n in range(n_max + 1):
        assert pair.lower[n] <= orbit[n] <= pair.upper[n]
    # the exact power maps: L(n+1) = C1*L(n)^(1+delta) and U(n+1) = C2*U(n)^(1+delta)
    for n in range(n_max):
        assert pair.lower[n + 1] == pn.c1 * pair.lower[n] ** e
        assert pair.upper[n + 1] == pn.c2 * pair.upper[n] ** e
