import json
import subprocess
import sys
from fractions import Fraction

import pytest

import recgrow.nsmodel as nsmodel
from recgrow import (
    CapExceededError,
    CertificateError,
    NsModel,
    Params,
    cost_projection,
    evaluate,
    published_3d_discrepancies,
    summand_budget,
    term_count,
)
from recgrow.cli import run


def test_term_count_reference_values():
    assert term_count(3, 0) == 1
    assert term_count(3, 1) == 10
    assert term_count(3, 2) == 901
    assert term_count(3, 3) == 7306210  # 1 + 9*901^2


def test_dimension_one_reduces_to_unit_coefficients():
    table = evaluate(Params(1, 1), 7)
    for n in range(8):
        assert term_count(1, n) == table[n]


def test_summand_budget_reference_values():
    assert summand_budget(3, 0) == 9
    assert summand_budget(3, 1) == 900
    assert summand_budget(1, 2) == 25


def test_budget_consistency():
    for d in (1, 2, 3, 4):
        for n in range(6):
            assert term_count(d, n + 1) == 1 + summand_budget(d, n)


def test_counts_increase_with_dimension():
    for n in (1, 2, 3):
        counts = [term_count(d, n) for d in range(1, 6)]
        assert all(x < y for x, y in zip(counts, counts[1:]))


def test_cost_projection_rows():
    proj = cost_projection(NsModel(d=3, iterations=2, bytes_per_term=16))
    assert [(r.n, r.terms, r.projected_bytes) for r in proj.rows] == [
        (1, 10, 160),
        (2, 901, 14416),
    ]
    assert proj.first_over_budget is None

    proj = cost_projection(NsModel(d=1, iterations=5, bytes_per_term=1))
    assert proj.rows[-1].projected_bytes == 458330


def test_cost_projection_budget_flag():
    proj = cost_projection(NsModel(d=3, iterations=4, bytes_per_term=16), budget=10 ** 6)
    assert proj.first_over_budget == 3
    assert proj.rows[2].projected_bytes == 7306210 * 16 > 10 ** 6


def test_model_validation():
    with pytest.raises(ValueError):
        NsModel(d=0, iterations=3)
    with pytest.raises(ValueError):
        NsModel(d=3, iterations=0)
    with pytest.raises(ValueError):
        NsModel(d=3, iterations=3, bytes_per_term=0)
    with pytest.raises(ValueError):
        term_count(0, 2)


def test_published_table_discrepancies():
    rows = published_3d_discrepancies()
    by_n = {r.n: r for r in rows}
    assert [by_n[n].matches for n in range(3)] == [True, True, True]
    assert by_n[3].published == "811802" and by_n[3].recomputed == 7306210
    assert by_n[3].matches is False
    assert by_n[4].matches is False and by_n[5].matches is False
    # approximate continuation rows carry no exact verdict
    assert by_n[6].matches is None and not by_n[6].published_exact
    assert by_n[7].matches is None
    # the published continuation is exactly the coefficient-1 recursion
    assert 811802 == 901 ** 2 + 1
    assert int(by_n[4].published) == 811802 ** 2 + 1


def test_published_table_evaluates_the_orbit_once(monkeypatch):
    calls = []
    evaluate = nsmodel.evaluate

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(nsmodel, "evaluate", counting)
    published_3d_discrepancies()
    assert len(calls) == 1


def test_published_table_respects_the_cap():
    with pytest.raises(CapExceededError, match="n_max=7 exceeds cap=5"):
        published_3d_discrepancies(cap=5)


@pytest.mark.parametrize("argv", [["eval", "--a", "1", "--b", "9", "--n", "2"], ["ns", "--d", "3", "--n", "2"]])
def test_cli_cap_bounds_the_published_table(argv, capsys):
    # the section runs to D(7), so a cap below 7 refuses the command as the library call does
    assert run([*argv, "--cap", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "recgrow: n_max=7 exceeds cap=2; term sizes grow like 2^n bits\n")
    assert run([*argv, "--cap", "7", "--format", "json"]) == 0
    assert [row["n"] for row in json.loads(capsys.readouterr().out)["discrepancies"]] == list(range(8))


def test_dimension_maps_to_squared_coefficient():
    table = evaluate(Params(1, 4), 6)
    for n in range(7):
        assert term_count(2, n) == table[n]


_NON_INTEGER_TERM = """
from fractions import Fraction
import recgrow.nsmodel as nsmodel
from recgrow import CertificateError

assert not __debug__
evaluate = nsmodel.evaluate
nsmodel.evaluate = lambda params, n, cap: [v + Fraction(1, 2) for v in evaluate(params, n, cap=cap).values]
try:
    nsmodel.term_count(3, 2)
except CertificateError:
    print("raised")
"""


def test_term_count_check_survives_optimize_flag():
    # a non-integer term count must be caught even with asserts compiled out
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_INTEGER_TERM], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_cost_projection_rejects_non_integer_terms(monkeypatch, capsys):
    # a term count off the integers is a library fault: never truncated, exit 4 from the CLI
    evaluate = nsmodel.evaluate
    monkeypatch.setattr(
        nsmodel, "evaluate", lambda params, n, cap: [v + Fraction(1, 2) for v in evaluate(params, n, cap=cap).values]
    )
    with pytest.raises(CertificateError):
        cost_projection(NsModel(3, 3))
    assert run(["ns", "--d", "2", "--n", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")
