"""Decimal twins: every value that eval, bounds, converge and benchmark print equals
the library's Fraction of the same value and passes perfbench's independent oracle,
and a twin that fails its residue check stops the CLI with exit code 4."""

import contextlib
import io
import itertools
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recgrow.cli as cli
import recgrow.twins as twins
from recgrow import Params, certify, compare_to_benchmark, convergence_profile, evaluate, is_monotone
from recgrow.serialize import EXACT, TwinText, frac_str
from recgrow.twins import P
from test_goldens import COMMANDS, replay

# perfbench's oracle shares no code with recgrow: a plain Fraction loop and cross-multiplied comparisons
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

F = Fraction

_small = st.fractions(min_value=F(1, 12), max_value=40, max_denominator=12)

_FIELDS = ("q_l", "lower", "upper", "actual", "ratio")


@st.composite
def _params(draw):
    """Valid (a, b, d0): b > 0, 4ab >= 1, d0 > 0; integers about a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return tuple(F(draw(st.integers(1, 12))) for _ in range(3))
    b = draw(_small)
    a = 1 / (4 * b) + draw(st.one_of(st.just(F(0)), _small))  # 4ab = 1 included
    return a, b, draw(_small)


def _results(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())["results"]


@settings(max_examples=60, deadline=None)
@given(_params(), st.integers(0, 12), st.integers(1, 5), st.integers(1, 5))
@example((F(1), F(1), F(1)), 12, 5, 5)
@example((F(2), F(3), F(7, 2)), 12, 5, 5)  # benchmark with a rational seed
@example((F(9, 4), F(1, 9), F(3, 2)), 12, 5, 5)  # each orbit step divides out 72, then 8
@example((F(3, 7), F(5, 3), F(11, 5)), 12, 5, 5)
@example((F(1, 4), F(1), F(1, 2)), 12, 5, 5)  # fixed-point orbit
def test_twin_rendering_matches_int_rendering(abd, n, k, l):
    params = Params(*abd)
    ab = ["--a", frac_str(params.a), "--b", frac_str(params.b), "--d0", frac_str(params.d0)]
    results, table = _results(["eval", "--n", str(n), *ab]), evaluate(params, n)
    assert results["values"] == [frac_str(v) for v in table.values]
    assert results["monotone"] is is_monotone(table)
    printed = _results(["bounds", "--kmax", str(k), "--lmax", str(l), *ab])["certificates"]
    assert [[c[f] for f in _FIELDS] + [c["holds"]] for c in printed] == [
        [frac_str(getattr(c, f)) for f in _FIELDS] + [c.holds] for c in certify(params, k, l)
    ]
    printed = _results(["converge", "--k", str(k), "--lmax", str(l), *ab])["rows"]
    rows = convergence_profile(params, k, range(1, l + 1)).rows
    assert [[r["ratio_minus_1"], r["gap"]] for r in printed] == [[frac_str(r), frac_str(g)] for _, r, g in rows]
    if params.a.denominator == params.b.denominator == 1 and params.d0 >= 1:
        printed = _results(["benchmark", "--n", str(n), *ab])["rows"]
        rows = compare_to_benchmark(params, n)
        assert [[r["value"], r["benchmark"], r["dominates"]] for r in printed] == [
            [frac_str(r.value), frac_str(r.benchmark), r.dominates] for r in rows
        ]


_twin = st.builds(twins.twin_of, st.fractions(min_value=F(1, 10**30), max_value=10**30, max_denominator=10**30))


@settings(max_examples=300, deadline=None)
@given(_twin, _twin, st.integers(1, 9))
def test_twin_comparison_matches_fraction_comparison(s, t, scale):
    # values with equal, adjacent and distant digit counts, and pairs equal in value
    x, y = (F(int(n), int(d)) for n, d in (s, t))
    assert twins._le(TwinText(*s), TwinText(*t)) is (x <= y)
    assert twins._le(TwinText(*s), TwinText(*twins.twin_of(x * scale))) is True


#: 10^1,000,001 as an exact integer: a twin part times it outgrows the default Emax of decimal contexts
_TEN_BIG = EXACT.quantize(Decimal("1e1000001"), Decimal(1))


@settings(max_examples=60, deadline=None)
@given(_twin, st.integers(1, 400), st.integers(-2, 2), st.integers(1, 3), st.booleans())
@example(twins.twin_of(F(3, 2)), 1, 0, 1, True)  # equal twins
@example(twins.twin_of(F(3, 2)), 1, 0, 2, True)  # equal values whose parts differ
@example(twins.twin_of(F(10**30 - 1, 7)), 400, -1, 1, True)
def test_close_twins_compare_as_fractions(s, shift, step, scale, big):
    # t = s * (1 + step/10^shift) agrees with s in about shift leading digits, so the outward-rounded
    # brackets must widen to separate them; equal values (step 0) with unequal parts reach the exact
    # cross-products.  With big, both numerators are multiplied by 10^1,000,001, which keeps the order
    x = F(int(s[0]), int(s[1]))
    y = x * (10**shift + step) / 10**shift
    t = tuple(EXACT.multiply(v, scale) for v in twins.twin_of(y))
    if big:
        s, t = (EXACT.multiply(s[0], _TEN_BIG), s[1]), (EXACT.multiply(t[0], _TEN_BIG), t[1])
    assert twins._le(TwinText(*s), TwinText(*t)) is (x <= y)
    assert twins._le(TwinText(*t), TwinText(*s)) is (y <= x)


_long = st.integers(1, 10**2000)


@settings(max_examples=60, deadline=None)
@given(_long, _long, st.integers(65, 2100), st.sampled_from([-1, 0, 1]))
def test_near_equal_long_twins_compare_as_fractions(n, d, k, step):
    # y = x * (10^k + step) / 10^k agrees with x in about k > 64 leading digits, so the 64-digit bracket
    # never decides; parts of up to about 4,000 digits reach the 256- and 1024-digit brackets or the
    # exact cross-products, and step 0 gives equal twins
    x = F(n, d)
    y = x * (10**k + step) / 10**k
    s, t = twins.twin_of(x), twins.twin_of(y)
    assert twins._le(TwinText(*s), TwinText(*t)) is (x <= y)
    assert twins._le(TwinText(*t), TwinText(*s)) is (y <= x)


@pytest.mark.parametrize("k, decided_at", [(100, 256), (500, 1024), (1500, None)])
def test_near_equal_long_twins_reach_each_bracket(k, decided_at, monkeypatch):
    # None: every bracket overlaps and the exact cross-products decide
    n, d = 7**2300, 3**4100 + 1  # 1,944 and 1,957 digits, coprime
    x, y = F(n, d), F(n * (10**k + 1), d * 10**k)
    s, t = twins.twin_of(x), twins.twin_of(y)
    precs, exact, context, times = [], [], twins.Context, twins._times
    monkeypatch.setattr(twins, "Context", lambda prec, **kw: precs.append(prec) or context(prec=prec, **kw))
    monkeypatch.setattr(twins, "_times", lambda *a: exact.append(1) or times(*a))
    assert twins._le(TwinText(*s), TwinText(*t)) is True
    assert twins._le(TwinText(*t), TwinText(*s)) is False
    assert max(precs) == (decided_at or 1024) and bool(exact) is (decided_at is None)


@settings(max_examples=40, deadline=None)
@given(_params(), st.integers(0, 10), st.integers(1, 4), st.integers(1, 4))
@example((F(1, 4), F(1), F(1, 4)), 6, 3, 3)  # 4ab = 1 below the fixed point: parts of equal length
def test_reports_pass_the_independent_oracle(abd, n, k, l):
    ab = ["--a", frac_str(abd[0]), "--b", frac_str(abd[1]), "--d0", frac_str(abd[2])]
    runs = (["eval", "--n", str(n)], ["bounds", "--kmax", str(k), "--lmax", str(l)], ["converge", "--k", str(k), "--lmax", str(l)])
    for argv in runs:
        argv += ab + ["--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0
        assert oracle.check(argv, out.getvalue().encode()) == []


# (command, part of each twin put one unit off: 0 numerator, 1 denominator)
_CORRUPTED = [
    ("eval --a 1 --b 1 --n 6", 0),
    ("eval --a 1/2 --b 1/2 --d0 35/2 --n 6", 1),
    ("bounds --a 1 --b 1 --kmax 3 --lmax 3", 0),
    ("bounds --a 3/7 --b 5/3 --d0 11/5 --kmax 3 --lmax 3", 1),
    ("converge --a 1 --b 1 --k 3 --lmax 4", 0),
    ("converge --a 3/7 --b 5/3 --d0 11/5 --k 3 --lmax 4", 1),
    ("benchmark --a 1 --b 1 --n 6", 0),
]
# part 3: numerator and denominator both times 3, the same value but not in lowest terms
_CORRUPTED += [(command, 3) for command, _ in _CORRUPTED]
# only the ratio twins of bounds and converge, put wrong as they are printed: part 4, both parts times
# the prime 1000003, which divides no part of b or D(l); part 5, the numerator one unit off.  With
# b = 1/P, P divides the gcd that reduces the ratio, and the ratio is checked exactly
_CORRUPTED += [
    (f"{command} --a {a} --b {b} {ks} --lmax 2", part)
    for command, ks in (("bounds", "--kmax 2"), ("converge", "--k 2"))
    for a, b in ((1, 1), ("1/2", "1/2 --d0 35/2"), (P, f"1/{P} --d0 3/2"))
    for part in (4, 5)
]
# part 6: each part times 1.0, the same value and residues, but it would print as "26.0"
_CORRUPTED += [("eval --a 1 --b 1 --n 6", 6), ("benchmark --a 1 --b 1 --n 6", 6)]

# replaces the check-and-print step of recgrow.twins with one that corrupts each twin first
_CORRUPT = """
import recgrow.twins as twins
from recgrow.serialize import EXACT


def corrupt(part):
    text = twins._text

    def _text(t, r, *ratio):
        if part == 3 or part == 4 and ratio:
            t = tuple(EXACT.multiply(x, 3 if part == 3 else 1000003) for x in t)
        elif part == 6:
            t = tuple(EXACT.multiply(x, EXACT.create_decimal("1.0")) for x in t)
        elif part < 3 or part == 5 and ratio:
            t = tuple(EXACT.add(x, 1) if i == (0 if part == 5 else part) else x for i, x in enumerate(t))
        return text(t, r, *ratio)

    twins._text = _text
"""


@pytest.mark.parametrize("command, part", _CORRUPTED)
def test_corrupted_twin_exits_4(command, part, capsys, monkeypatch):
    monkeypatch.setattr(twins, "_text", twins._text)  # restored after the test
    namespace = {}
    exec(_CORRUPT, namespace)
    namespace["corrupt"](part)
    assert cli.run(command.split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")


_CORRUPT_UNDER_O = _CORRUPT + """
import sys
import recgrow.cli as cli

assert not __debug__
corrupt(int(sys.argv[1]))
sys.exit(cli.run(sys.argv[2:]))
"""


@pytest.mark.parametrize("command, part", _CORRUPTED)
def test_corrupted_twin_exits_4_under_optimize_flag(command, part):
    # the residue check is an explicit raise, so python -O keeps it
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_UNDER_O, str(part), *command.split()], capture_output=True, text=True
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("recgrow: certificate failure: ")



def test_bounds_checks_every_actual_twin(monkeypatch, capsys):
    # the corruption tests fault every twin at once, so they pass whether or not D(k+l) is checked;
    # here each orbit twin that bounds prints must itself go through _text
    orbit, checked = [], set()
    make_orbit, text = twins._orbit, twins._text
    monkeypatch.setattr(twins, "_orbit", lambda params, n: (orbit.append(d) or d for d in make_orbit(params, n)))
    monkeypatch.setattr(twins, "_text", lambda t, *rest: checked.add(id(t)) or text(t, *rest))
    assert cli.run("bounds --a 3/7 --b 5/3 --d0 11/5 --kmax 3 --lmax 3".split()) == 0
    capsys.readouterr()
    assert len(orbit) == 7 and all(id(t) in checked for t, _ in orbit[2:])

_RATIO_FAULTS = [
    # each ratio reduces its numerators, then its denominators; a numerator times the prime 1000003 is
    # still in lowest terms but has the wrong value.  With b = 1/P, P divides the gcd that reduces the
    # ratio, so its parts are checked exactly
    ("bounds --a 1 --b 1 --kmax 2 --lmax 2", "value"),
    (f"bounds --a {P} --b 1/{P} --kmax 2 --lmax 2", "value"),
    # the value is right but not in lowest terms
    ("bounds --a 1 --b 1 --kmax 2 --lmax 2", "unreduced"),
    ("bounds --a 1/2 --b 1/2 --d0 35/2 --kmax 2 --lmax 2", "unreduced"),
]


@pytest.mark.parametrize("command, fault", _RATIO_FAULTS)
def test_ratio_from_a_faulty_reduction_exits_4(command, fault, capsys, monkeypatch):
    reduce, calls = twins.twin_reduce, itertools.count()

    def faulty(x, y, w):
        if fault == "unreduced":
            return x, y, EXACT.create_decimal(1)
        x, y, g = reduce(x, y, w)
        return (EXACT.multiply(x, 1000003), y, g) if next(calls) % 2 == 0 else (x, y, g)

    monkeypatch.setattr(twins, "twin_reduce", faulty)
    assert cli.run(command.split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")


def test_bounds_gates_each_twin_once(monkeypatch, tmp_path):
    # where P divides the gcd of the ratio, the ratio's exact check reads act and lo as the row printed
    # them, so each of the 9 rows gates its lower, upper, actual and ratio, and nothing twice
    text, calls = twins._text, []
    monkeypatch.setattr(twins, "_text", lambda *args: calls.append(args) or text(*args))
    command = f"bounds --a {P} --b 1/{P} --kmax 3 --lmax 3 --format table"
    assert (replay(command, tmp_path), len(calls)) == (COMMANDS[command], 36)


@pytest.mark.parametrize("abd", ["--a 1 --b 1", f"--a {P} --b 1/{P} --d0 3/2"])
@pytest.mark.parametrize("part", [0, 1])
def test_converge_checks_the_lower_bound_it_does_not_print(abd, part, capsys, monkeypatch):
    # with P dividing the gcd of the ratio, the ratio's exact check agrees with a faulty lower bound,
    # so converge must gate it; the gap's power Q^(2^k) / Q is left whole
    power_over = twins._power_over

    def faulty(t, f, g, k):
        twin, r = power_over(t, f, g, k)
        return (tuple(EXACT.add(x, 1) if i == part else x for i, x in enumerate(twin)) if f != g else twin), r

    monkeypatch.setattr(twins, "_power_over", faulty)
    assert cli.run(f"converge {abd} --k 2 --lmax 2".split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")


def test_verdicts_come_from_the_twin_comparison(monkeypatch):
    # valid parameters make every verdict true, so a comparison that says "greater" shows the wiring
    monkeypatch.setattr(twins, "_le", lambda s, t: False)
    assert _results("eval --a 1 --b 1 --n 3".split())["monotone"] is False
    assert [c["holds"] for c in _results("bounds --a 1 --b 1 --kmax 1 --lmax 2".split())["certificates"]] == [False] * 2
    rows = _results("benchmark --a 1 --b 1 --n 2".split())["rows"]
    assert [r["dominates"] for r in rows] == [False] * 3


def test_holds_reads_the_checked_ratio(monkeypatch):
    # a ratio below 1 says lower > actual, so no row may hold whatever the upper bound says
    monkeypatch.setattr(twins, "_ratio", lambda *args: TwinText(Decimal(1), Decimal(2)))
    assert [c["holds"] for c in _results("bounds --a 1 --b 1 --kmax 1 --lmax 2".split())["certificates"]] == [False] * 2


@pytest.mark.parametrize("abd", ["--a 1 --b 1", f"--a {P} --b 1/{P} --d0 3/2"])
@pytest.mark.parametrize("part", [0, 1])
def test_converge_checks_the_orbit_it_does_not_print(abd, part, capsys, monkeypatch):
    # converge prints no D(k+l), so the check of its ratio must catch a D(k+l) one unit off, also where
    # P divides the gcd of the ratio and the ratio is checked exactly
    orbit = twins._orbit

    def faulty(params, n):
        for t, r in orbit(params, n):
            yield tuple(EXACT.add(x, 1) if i == part else x for i, x in enumerate(t)), r

    monkeypatch.setattr(twins, "_orbit", faulty)
    assert cli.run(f"converge {abd} --k 2 --lmax 2".split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")
