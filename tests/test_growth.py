import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import log as mp_log, mp, mpf

from recgrow import (
    CapExceededError,
    Params,
    ToleranceUnachievableError,
    compare_to_benchmark,
    doubling_benchmark,
    evaluate,
    growth_enclosure,
    log_log_index,
    q_factor,
)
import recgrow.growth as growth_mod
import recgrow.roots as roots
from recgrow.cli import run
from recgrow.roots import nth_root_lower

F = Fraction


def test_enclosure_l1_reference_endpoints():
    # c_lo = 2^(1/2), c_hi = (5/2)^(1/2), outward rounded
    enc = growth_enclosure(Params(1, 1), 1, "1e-9")
    ulp = F(1, 10 ** enc.digits)
    assert enc.c_lo ** 2 <= 2 < (enc.c_lo + ulp) ** 2
    assert enc.c_hi ** 2 >= F(5, 2) > (enc.c_hi - ulp) ** 2
    assert abs(float(enc.c_lo) - math.sqrt(2)) < 1e-9
    assert abs(float(enc.c_hi) - math.sqrt(2.5)) < 1e-9


def test_enclosure_l5_width_and_digits():
    enc = growth_enclosure(Params(1, 1), 5, "1e-12")
    assert enc.width < F(1, 10 ** 10)
    # constant is 1.5028368010...
    assert F(15028368, 10 ** 7) < enc.c_lo <= enc.c_hi < F(15028369, 10 ** 7)


def test_root_certification_by_re_exponentiation():
    for p in (Params(1, 1), Params(1, 9), Params(2, F(1, 2))):
        for l in (1, 3, 5):
            enc = growth_enclosure(p, l, "1e-10")
            table = evaluate(p, l)
            x_lo = p.b * table[l]
            x_hi = x_lo * q_factor(p, table, l)
            assert enc.c_lo ** (2 ** l) <= x_lo
            assert enc.c_hi ** (2 ** l) >= x_hi
            assert F(1, 10 ** enc.digits) <= F("1e-10") * enc.c_lo


@pytest.mark.parametrize("l", range(1, 11))
@pytest.mark.parametrize("params", [Params(1, 1), Params(F(3, 7), F(5, 3), F(11, 5))])
def test_an_enclosure_makes_six_comparisons(params, l, monkeypatch):
    # through either module's binding: 1 for the coarse pass, 1 for c_lo, 2 for c_hi and the 2 re-checks
    compare, calls = roots.pow_cmp, []
    monkeypatch.setattr(roots, "pow_cmp", lambda *args, **kw: calls.append(args) or compare(*args, **kw))
    monkeypatch.setattr(growth_mod, "pow_cmp", roots.pow_cmp)
    growth_enclosure(params, l, "1e-12")
    assert len(calls) == 6


def test_enclosure_nesting_and_width_decay():
    encs = {l: growth_enclosure(Params(1, 1), l, "1e-12") for l in range(1, 9)}
    for l in range(1, 9):
        for lp in range(l, 9):
            assert encs[l].c_lo <= encs[lp].c_lo <= encs[l].c_hi
    for l in range(2, 8):
        assert encs[l + 1].width < encs[l].width


def test_enclosure_degenerate_fixed_point():
    # constant orbit at 1/2: upper root is exactly 1, lower tends up to 1
    prev_lo = F(0)
    for l in (1, 2, 4, 6):
        enc = growth_enclosure(Params(F(1, 4), 1, d0=F(1, 2)), l, "1e-9")
        assert enc.c_hi == 1
        assert prev_lo < enc.c_lo < 1
        prev_lo = enc.c_lo


def test_enclosure_argument_errors():
    with pytest.raises(ValueError):
        growth_enclosure(Params(1, 1), 0, "1e-9")
    with pytest.raises(ValueError):
        growth_enclosure(Params(1, 1), 3, "1e-31")
    with pytest.raises(ToleranceUnachievableError):
        growth_enclosure(Params(1, 1), 10, "1e-15", max_digits=1000)
    with pytest.raises(CapExceededError):
        growth_enclosure(Params(1, 1), 12, "1e-9", cap=10)


def test_log_log_index_reference_values():
    table = evaluate(Params(1, 1), 12)
    idx6 = log_log_index(table, 6, "1e-15")
    # independent float oracle; math.log takes big ints directly
    oracle6 = math.log2(math.log(210066388901)) / 6
    assert abs(float(idx6) - oracle6) < 1e-9
    idx12 = log_log_index(table, 12, "1e-15")
    oracle12 = math.log2(math.log(int(table[12]))) / 12
    assert abs(float(idx12) - oracle12) < 1e-9
    assert abs(float(idx12) - 0.8920) < 2e-4


def test_log_log_index_monotone_approach():
    table = evaluate(Params(1, 1), 12)
    values = [log_log_index(table, n, "1e-15") for n in range(3, 13)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(v < 1 for v in values)


def test_log_log_index_domain_error():
    table = evaluate(Params(F(1, 4), 1, d0=F(1, 2)), 4)
    with pytest.raises(ValueError):
        log_log_index(table, 3, "1e-9")  # b*D(n) = 1/2 <= 1


def _mpmath_pass(x: Fraction, n: int, prec: int) -> Fraction:
    """log2(ln x) / n in mpmath at mp.prec = prec, exactly as the package computed it before it
    dropped mpmath: ln of an int is (bits-1)*ln2 plus the log of its leading prec+1 bits."""

    def ln_int(k):
        shift = k.bit_length() - 1
        drop = max(0, shift - prec)
        return shift * mp.ln2 + mp_log(mpf(k >> drop) / mpf(1 << (shift - drop)))

    with mp.workprec(prec):
        sign, man, exp, _ = (mp_log(ln_int(x.numerator) - ln_int(x.denominator)) / mp.ln2 / n)._mpf_
    return (-1) ** sign * F(int(man)) * F(2) ** int(exp)


def _mpmath_log_log_index(table, n, rtol, prec=80):
    """The reference loop: (value, final precision), passes doubling prec until two agree within rtol/2."""
    x, rt = table.params.b * table[n], F(rtol)
    prev = _mpmath_pass(x, n, prec)
    while True:
        prec *= 2
        cur = _mpmath_pass(x, n, prec)
        if abs(cur - prev) <= rt * abs(cur) / 2:
            return cur, prec
        prev = cur


def _loglog_cases(rng):
    """Fixed-seed (table, n, rtol) cases: integer orbits up to n = 19, rational ones up to n = 12."""
    for orbit in range(110):
        if orbit % 11 == 0:
            params, n_max = Params(*(rng.randint(1, 9) for _ in range(3))), rng.randint(12, 19)
        else:
            b, d0 = (F(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(2))
            a = 1 / (4 * b) + F(rng.randint(0, 20), rng.randint(1, 20))  # 4ab >= 1
            params, n_max = Params(a, b, d0), rng.randint(1, 12)
        table = evaluate(params, n_max)
        for n in range(1, n_max + 1):
            if params.b * table[n] > 1:
                for rtol in rng.sample(["1e-6", "1e-9", "1e-15", "1e-20", "1e-30"], 3):
                    yield table, n, rtol


def test_log_log_index_matches_mpmath_bit_for_bit():
    # every step is rounded to nearest at the working precision in both, so the binary floats agree
    cases = list(_loglog_cases(random.Random(20240519)))
    assert len(cases) >= 2000
    precs = set()
    for table, n, rtol in cases:
        expected, prec = _mpmath_log_log_index(table, n, rtol)
        assert log_log_index(table, n, rtol) == expected, (table.params, n, rtol)
        precs.add(prec)
    assert max(precs) >= 320  # some cases need three or more passes


def test_log_log_index_near_one(capsys):
    # b*D(1) = 1 + 10^-60: ln of numerator and denominator cancel to 0 at 80 and 160 bits
    argv = "growth --a 1 --b 1 --d0 1e-30 --l 3 --loglog-n 1 --format json".split()
    assert run(argv) == 0
    value = F(json.loads(capsys.readouterr().out)["results"]["log_log_index"]["value"])
    expected, _ = _mpmath_log_log_index(evaluate(Params(1, 1, F(1, 10 ** 30)), 1), 1, "1e-12", prec=4 * 80)
    assert abs(value - expected) <= F(1, 10 ** 12) * abs(expected)
    assert -200 < value < -199


def test_doubling_benchmark_table():
    expected = [1, 2, 4, 16, 256, 65536, 4294967296, 18446744073709551616]
    assert [doubling_benchmark(n) for n in range(8)] == expected
    with pytest.raises(CapExceededError):
        doubling_benchmark(31)
    with pytest.raises(ValueError):
        doubling_benchmark(-1)


def test_compare_to_benchmark_reference_rows():
    rows = compare_to_benchmark(Params(1, 1), 7)
    assert all(r.dominates for r in rows)
    assert rows[7].value == 44127887745906175987802
    assert rows[7].benchmark == 18446744073709551616
    rows = compare_to_benchmark(Params(1, 9), 2)
    assert rows[2].value == 901 and rows[2].benchmark == 4 and rows[2].dominates
    assert rows[0].value == 1 == rows[0].benchmark  # seed equality


def test_compare_to_benchmark_regime_check():
    with pytest.raises(ValueError):
        compare_to_benchmark(Params(F(1, 4), 1), 5)
    with pytest.raises(ValueError):
        compare_to_benchmark(Params(1, 1, d0=F(1, 2)), 5)


def test_benchmark_domination_deeper():
    rows = compare_to_benchmark(Params(1, 1), 12)
    assert all(r.dominates for r in rows)
    rows = compare_to_benchmark(Params(2, 3), 10)
    assert all(r.dominates for r in rows)


def test_double_log_deviation_stays_bounded():
    # log2(ln(b*D(n))) - n settles near log2(ln C), so the gap is O(1)
    table = evaluate(Params(1, 1), 12)
    for n in range(4, 13):
        idx = log_log_index(table, n, "1e-12")
        assert abs(idx * n - n) < 2


def test_rtol_must_be_below_one():
    with pytest.raises(ValueError):
        growth_enclosure(Params(1, 1), 3, 1)
    with pytest.raises(ValueError):
        growth_enclosure(Params(1, 1), 3, "3/2")


def _aho_sloane_ln_c(a, b, d0):
    """ln C = ln(b*d0) + sum_j 2^-(j+1) ln Q(j), Q(j) = 1 + a/(b*D(j)^2), at mp.dps.

    D is nondecreasing when 4ab >= 1, so Q is nonincreasing and the tail after
    a term is at most that term: stopping below 10^-dps leaves an error under it.
    """
    a, b, d = (mpf(v.numerator) / v.denominator for v in (a, b, d0))
    total = mp.log(b * d)
    eps = mpf(10) ** -mp.dps
    weight = mpf(1) / 2
    while True:
        term = weight * mp.log(1 + a / (b * d * d))
        total += term
        if term < eps:
            return total
        d = a + b * d * d
        weight /= 2


_small_fractions = st.builds(F, st.integers(1, 30), st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(
    b=_small_fractions,
    extra=st.builds(F, st.integers(0, 20), st.integers(1, 20)),
    d0=_small_fractions,
    l=st.integers(1, 8),
    rtol=st.sampled_from(["1e-6", "1e-12", "1e-30"]),
)
@example(b=F(1), extra=F(0), d0=F(1, 2), l=6, rtol="1e-9")  # fixed point: C = c_hi = 1
@example(b=F(1), extra=F(3, 4), d0=F(1), l=8, rtol="1e-12")  # a = b = 1
def test_enclosure_contains_aho_sloane_constant(b, extra, d0, l, rtol):
    a = 1 / (4 * b) + extra  # 4ab >= 1
    enc = growth_enclosure(Params(a, b, d0), l, rtol)
    whole_digits = len(str(enc.c_hi.numerator // enc.c_hi.denominator))
    with mp.workdps(enc.digits + whole_digits + 20):
        c = mp.exp(_aho_sloane_ln_c(a, b, d0))
        slack = mpf(10) ** -(enc.digits + 10)
        c_lo = mpf(enc.c_lo.numerator) / enc.c_lo.denominator
        c_hi = mpf(enc.c_hi.numerator) / enc.c_hi.denominator
        assert c_lo - slack <= c <= c_hi + slack


@settings(max_examples=60, deadline=None)
@given(
    b=_small_fractions,
    extra=st.builds(F, st.integers(0, 20), st.integers(1, 20)),
    d0=_small_fractions,
    l=st.integers(1, 8),
)
@example(b=F(1), extra=F(0), d0=F(1, 2), l=8)  # fixed point: b*D(l) = 1/2 for every l
@example(b=F(30), extra=F(0), d0=F(1, 30), l=1)  # ab = 1/4 and a small seed
def test_coarse_root_is_at_least_one_half(b, extra, d0, l):
    # growth_enclosure takes the root's magnitude from one 8-digit root with no
    # retry: b*D(l) > ab >= 1/4 for l >= 1, so that root is never 0
    params = Params(1 / (4 * b) + extra, b, d0)
    x = b * evaluate(params, l)[l]
    assert nth_root_lower(x, l, 8) >= F(1, 2)


def _oracle_root(x: Fraction, l: int, digits: int, ceil: bool) -> int:
    """floor or ceil of x^(1/2^l) * 10^digits, by l floor square roots of the exact radicand.

    floor(sqrt(floor(y))) = floor(sqrt(y)) for y >= 0, and t >= y^(1/m) exactly when t^m >= ceil(y)."""
    scaled = x * 10 ** (digits * 2 ** l)
    radicand = math.ceil(scaled) if ceil else math.floor(scaled)
    r = radicand
    for _ in range(l):
        r = math.isqrt(r)
    return r + (ceil and r ** 2 ** l < radicand)


def _fixed(n: int, digits: int) -> str:
    return f"{n // 10 ** digits}.{n % 10 ** digits:0{digits}d}" if digits else str(n)


@settings(max_examples=80, deadline=None)
@given(
    b=st.builds(F, st.integers(1, 40), st.integers(1, 40)),
    extra=st.builds(F, st.integers(0, 30), st.integers(1, 30)),
    d0=st.builds(F, st.integers(1, 40), st.integers(1, 40)),
    l=st.integers(1, 5),
    rtol=st.one_of(
        st.integers(1, 30).map(lambda k: F(1, 10 ** k)), st.builds(F, st.integers(1, 999), st.integers(1000, 10 ** 9))
    ),
)
@example(b=F(1), extra=F(0), d0=F(1, 2), l=3, rtol=F(1, 10 ** 9))  # fixed point: c_hi = 1 exactly
@example(b=F(5, 3), extra=F(3, 7) - F(3, 20), d0=F(11, 5), l=5, rtol=F(1, 10 ** 30))
def test_cli_prints_the_exact_oracle_enclosure(b, extra, d0, l, rtol):
    # the enclosure rebuilt here with plain Fractions and exact powers, step by step as growth_enclosure states it
    a = 1 / (4 * b) + extra  # 4ab >= 1
    d = d0
    for _ in range(l):
        d = a + b * d * d
    x_lo = b * d
    q = 1 + a / (b * d * d)
    x_hi = x_lo * q
    assert x_hi == (a + b * d * d) / d
    c0 = F(_oracle_root(x_lo, l, 8, ceil=False), 10 ** 8)
    target = min(rtol * c0 / 2, c0 * (q - 1) / (q * 2 ** l) / 20)
    s = 0
    while F(1, 10 ** s) > target:
        s += 1
    r, t = _oracle_root(x_lo, l, s, ceil=False), _oracle_root(x_hi, l, s, ceil=True)

    out = io.StringIO()
    argv = ["growth", "--a", str(a), "--b", str(b), "--d0", str(d0), "--l", str(l), "--rtol", str(rtol)]
    with contextlib.redirect_stdout(out):
        assert run([*argv, "--format", "json"]) == 0
    results = json.loads(out.getvalue())["results"]
    expected = {"digits": s, "c_lo": _fixed(r, s), "c_hi": _fixed(t, s), "width": _fixed(t - r, s)}
    assert {key: results[key] for key in expected} == expected


_BAD_UPPER_ROOT = """
import recgrow.growth as growth
from recgrow import CertificateError, Params

assert not __debug__
upper = growth._ceil_point
growth._ceil_point = lambda x, l, digits, max_digits: upper(x, l, digits, max_digits) - 1
try:
    growth.growth_enclosure(Params(1, 1), 3, "1e-9")
except CertificateError:
    print("raised")
"""


def test_enclosure_check_survives_optimize_flag():
    # a c_hi one grid step low must be caught even with asserts compiled out
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_UPPER_ROOT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
