"""Decimal twins: every value that eval, bounds, converge and benchmark print from
a twin equals the int-only rendering of the same value, and a twin that disagrees
with its int stops the CLI with exit code 4."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recgrow.cli as cli
from recgrow import Params, certify, compare_to_benchmark, convergence_profile, evaluate
from recgrow.serialize import EXACT, frac_str

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
    values = _results(["eval", "--n", str(n), *ab])["values"]
    assert values == [frac_str(v) for v in evaluate(params, n).values]
    printed = _results(["bounds", "--kmax", str(k), "--lmax", str(l), *ab])["certificates"]
    assert [[c[f] for f in _FIELDS] for c in printed] == [
        [frac_str(getattr(c, f)) for f in _FIELDS] for c in certify(params, k, l)
    ]
    printed = _results(["converge", "--k", str(k), "--lmax", str(l), *ab])["rows"]
    rows = convergence_profile(params, k, range(1, l + 1)).rows
    assert [[r["ratio_minus_1"], r["gap"]] for r in printed] == [[frac_str(r), frac_str(g)] for _, r, g in rows]
    if params.a.denominator == params.b.denominator == 1 and params.d0 >= 1:
        printed = _results(["benchmark", "--n", str(n), *ab])["rows"]
        rows = compare_to_benchmark(params, n)
        assert [[r["value"], r["benchmark"]] for r in printed] == [[frac_str(r.value), frac_str(r.benchmark)] for r in rows]


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


def _one_off(render, part):
    def frac_str(x, twin=None):
        if twin is not None:
            twin = tuple(EXACT.add(t, 1) if i == part else t for i, t in enumerate(twin))
        return render(x, twin)

    return frac_str


@pytest.mark.parametrize("command, part", _CORRUPTED)
def test_corrupted_twin_exits_4(command, part, capsys, monkeypatch):
    monkeypatch.setattr(cli, "frac_str", _one_off(cli.frac_str, part))
    assert cli.run(command.split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")


_CORRUPT_UNDER_O = """
import sys
import recgrow.cli as cli
from recgrow.serialize import EXACT

assert not __debug__
part, render = int(sys.argv[1]), cli.frac_str


def frac_str(x, twin=None):
    if twin is not None:
        twin = tuple(EXACT.add(t, 1) if i == part else t for i, t in enumerate(twin))
    return render(x, twin)


cli.frac_str = frac_str
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
