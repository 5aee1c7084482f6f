import subprocess
import sys
from fractions import Fraction

import pytest

import recgrow.bounds as bounds
from recgrow import (
    CertificateError,
    NonIntegerParamsError,
    Params,
    certify,
    convergence_profile,
    evaluate,
    integer_envelope,
    lower_bound,
    q_factor,
    ratio,
    upper_bound,
)

F = Fraction

GRID = [
    Params(1, 1),
    Params(1, 9),
    Params(F(1, 4), 1),
    Params(2, F(1, 2)),
    Params(F(1, 2), 2),
]


def test_q_factor_reference_values():
    t11 = evaluate(Params(1, 1), 2)
    t19 = evaluate(Params(1, 9), 2)
    assert q_factor(Params(1, 1), t11, 1) == F(5, 4)
    assert q_factor(Params(1, 9), t19, 1) == F(901, 900)


def test_q_factor_exceeds_one_and_decreases():
    for p in GRID:
        table = evaluate(p, 9)
        qs = [q_factor(p, table, l) for l in range(1, 9)]
        assert all(q > 1 for q in qs)
        assert all(x > y for x, y in zip(qs, qs[1:]))


def test_q_factor_index_error():
    table = evaluate(Params(1, 1), 3)
    with pytest.raises(IndexError):
        q_factor(Params(1, 1), table, 4)


def test_lower_bound_reference_values():
    t11 = evaluate(Params(1, 1), 3)
    t19 = evaluate(Params(1, 9), 2)
    assert lower_bound(Params(1, 1), t11, 2, 1) == 16 <= t11[3] == 26
    assert lower_bound(Params(1, 9), t19, 1, 1) == 900 <= t19[2] == 901


def test_one_step_lower_is_value_minus_a():
    for p in GRID:
        table = evaluate(p, 6)
        for l in range(1, 6):
            lo = lower_bound(p, table, 1, l)
            assert lo == table[l + 1] - p.a < table[l + 1]


def test_upper_bound_reference_values():
    p11, p19 = Params(1, 1), Params(1, 9)
    t11 = evaluate(p11, 3)
    t19 = evaluate(p19, 3)
    assert upper_bound(p11, t11, 1, 1) == 5 == t11[2]  # equality at k=1
    assert upper_bound(p11, t11, 2, 1) == F(125, 4) >= t11[3]
    expected = F(9) ** 3 * 10 ** 4 * F(901, 900) ** 3
    assert upper_bound(p19, t19, 2, 1) == expected >= t19[3]


def test_ratio_reference_values():
    p11, p19 = Params(1, 1), Params(1, 9)
    t11 = evaluate(p11, 3)
    t19 = evaluate(p19, 2)
    assert ratio(p11, t11, 1, 1) == F(5, 4)
    assert ratio(p11, t11, 2, 1) == F(13, 8)
    assert ratio(p19, t19, 1, 1) == F(8109, 8100) == q_factor(p19, t19, 1)


def test_ratio_k_zero_convention():
    table = evaluate(Params(1, 1), 3)
    assert ratio(Params(1, 1), table, 0, 2) == 1
    with pytest.raises(ValueError):
        ratio(Params(1, 1), table, -1, 1)


def test_one_step_ratio_equals_q():
    for p in GRID:
        table = evaluate(p, 11)
        for l in range(1, 11):
            assert ratio(p, table, 1, l) == q_factor(p, table, l)


def test_certify_reference_grids():
    certs = certify(Params(1, 1), 4, 4)
    assert len(certs) == 16 and all(c.holds for c in certs)
    certs = certify(Params(1, 9), 3, 3)
    assert len(certs) == 9 and all(c.holds for c in certs)


def test_certify_k1_certificates_hit_q_exactly():
    for c in certify(Params(2, F(1, 2)), 1, 6):
        assert c.ratio == c.q_l


def test_certificates_are_internally_consistent():
    for p in GRID:
        for c in certify(p, 3, 3):
            # the ratio form of the sandwich must agree with the value form
            assert c.holds == (1 <= c.ratio <= c.q_l ** (2 ** c.k - 1))
            assert c.holds == (c.lower <= c.actual <= c.upper)
            assert c.q_l > 1


def test_envelope_composition_rules():
    for p in GRID:
        table = evaluate(p, 8)
        for l in (1, 2):
            for k in (1, 2, 3):
                q = q_factor(p, table, l)
                assert lower_bound(p, table, k + 1, l) == p.b * lower_bound(p, table, k, l) ** 2
                step = p.b * upper_bound(p, table, k, l) ** 2 * q
                assert upper_bound(p, table, k + 1, l) <= step
                assert upper_bound(p, table, k + 1, l) == step  # tight at fixed l


def test_convergence_profile_gap_decreases():
    profile = convergence_profile(Params(1, 1), 2, range(1, 5))
    gaps = [g for _, _, g in profile.rows]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    for _, r1, gap in profile.rows:
        assert 0 <= r1 <= gap


def test_convergence_profile_k1_matches_q():
    p = Params(1, 9)
    table = evaluate(p, 6)
    profile = convergence_profile(p, 1, range(1, 6))
    for l, r1, gap in profile.rows:
        assert r1 == q_factor(p, table, l) - 1 == gap


def test_convergence_profile_single_row():
    profile = convergence_profile(Params(F(1, 2), 2), 4, [3])
    assert len(profile.rows) == 1
    l, r1, gap = profile.rows[0]
    assert l == 3 and 0 <= r1 <= gap


def test_integer_envelope_reference_values():
    p11, p19 = Params(1, 1), Params(1, 9)
    t11 = evaluate(p11, 3)
    t19 = evaluate(p19, 2)
    assert integer_envelope(p11, t11, 2, 1) == (16, 31)
    assert 16 <= t11[3] == 26 <= 31
    assert integer_envelope(p11, t11, 1, 2) == (25, 26)
    assert integer_envelope(p19, t19, 1, 1) == (900, 901)


def test_integer_envelope_rejects_a_lower_bound_off_the_integers(monkeypatch):
    # integer a, b and d0 keep the orbit integral, so a lower bound that is not an integer is a fault
    monkeypatch.setattr(bounds, "lower_bound", lambda params, table, k, l: F(1, 2))
    p = Params(1, 1)
    with pytest.raises(CertificateError, match=r"^lower bound on D\(3\) is not an integer$"):
        integer_envelope(p, evaluate(p, 3), 1, 2)


def test_integer_envelope_rejects_rational_coefficients():
    p = Params(F(1, 4), 1)
    table = evaluate(p, 3)
    with pytest.raises(NonIntegerParamsError):
        integer_envelope(p, table, 1, 1)


def test_integer_envelope_tightness():
    for p in (Params(1, 1), Params(1, 9), Params(2, 1)):
        table = evaluate(p, 8)
        for k in range(1, 4):
            for l in range(1, 4):
                lo, up = integer_envelope(p, table, k, l)
                q = q_factor(p, table, l)
                assert up - lo < lo * (q ** (2 ** k - 1) - 1) + 1


def test_index_and_argument_errors():
    p = Params(1, 1)
    table = evaluate(p, 4)
    with pytest.raises(IndexError):
        lower_bound(p, table, 3, 2)
    with pytest.raises(ValueError):
        lower_bound(p, table, 0, 1)
    with pytest.raises(ValueError):
        certify(p, 0, 3)
    with pytest.raises(ValueError):
        convergence_profile(p, 2, [])


def test_l_must_be_positive():
    p = Params(1, 1)
    table = evaluate(p, 4)
    for fn in (lambda: q_factor(p, table, 0),
               lambda: lower_bound(p, table, 2, 0),
               lambda: ratio(p, table, 2, 0)):
        with pytest.raises(ValueError):
            fn()


_NON_INTEGER_LOWER = """
from fractions import Fraction
import recgrow.bounds as bounds
from recgrow import CertificateError, Params, evaluate

assert not __debug__
lower = bounds.lower_bound
bounds.lower_bound = lambda *args: lower(*args) + Fraction(1, 2)
try:
    bounds.integer_envelope(Params(1, 1), evaluate(Params(1, 1), 3), 2, 1)
except CertificateError:
    print("raised")
"""


def test_integer_envelope_check_survives_optimize_flag():
    # a non-integer lower bound must be caught even with asserts compiled out
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_INTEGER_LOWER], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
