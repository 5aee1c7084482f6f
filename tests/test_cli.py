import decimal
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recgrow.cli as cli
import recgrow.general as general_mod
import recgrow.growth as growth_mod
import recgrow.twins as twins_mod
from recgrow import DEFAULT_CAP, MATRIX_DEFAULT_CAP, Params, evaluate, q_factor, term_count
from recgrow.cli import _COMMANDS, _read, build_parser, run
from recgrow.errors import (
    CapExceededError,
    CertificateError,
    InvalidParamsError,
    NonIntegerParamsError,
    RecgrowError,
    ToleranceUnachievableError,
    _UsageError,
)
from recgrow.serialize import parse_rational

F = Fraction


def _json_out(capsys, argv, expect=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return json.loads(captured.out)


def test_eval_json_reference(capsys):
    doc = _json_out(capsys, ["eval", "--a", "1", "--b", "1", "--n", "5", "--format", "json"])
    assert doc["schema_version"] == 1
    assert doc["command"] == "eval"
    assert doc["params"] == {"a": "1", "b": "1", "d0": "1"}
    assert doc["results"]["values"][-1] == "458330"
    assert doc["results"]["monotone"] is True
    assert doc["discrepancies"] == []


def test_eval_rational_flags(capsys):
    doc = _json_out(capsys, ["eval", "--a", "1/4", "--b", "1", "--d0", "1/2", "--n", "3", "--format", "json"])
    assert doc["results"]["values"] == ["1/2"] * 4


def test_bounds_json_reference(capsys):
    doc = _json_out(capsys, ["bounds", "--a", "1", "--b", "9", "--kmax", "1", "--lmax", "1", "--format", "json"])
    cert = doc["results"]["certificates"][0]
    assert cert["holds"] is True
    # exact value match; serialization is in lowest terms
    assert F(cert["ratio"]) == F(8109, 8100)
    assert cert["lower"] == "900" and cert["actual"] == "901"
    assert doc["results"]["all_hold"] is True


def test_invalid_params_exit_2(capsys):
    code = run(["eval", "--a", "1", "--b", "0", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "b > 0" in captured.err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("eval --a 1 --b -1/2 --n 2", 2, "b > 0"),
        ("eval --a 1 --b -1e3 --n 2", 2, "b > 0"),
        ("eval --a 1 --b 1 --d0 -3/2 --n 2", 2, "d0 > 0"),
        ("eval --a 1 --b 1 --d0 -.5 --n 2", 2, "d0 > 0"),
        ("growth --a 1 --b 1 --l 3 --rtol -1/2", 2, "rtol must lie in"),
        ("eval --a 1 --b 1 --d0 -x --n 2", 1, "argument --d0: expected one argument"),
    ],
)
def test_negative_rationals_are_values(argv, code, message, capsys):
    # a negative value in every rational form reaches the checks and names the failed condition
    assert run(argv.split()) == code
    assert message in capsys.readouterr().err


def test_integer_arguments_say_what_is_wrong(capsys):
    assert run(["eval", "--a", "1", "--b", "1", "--n", "x"]) == 1
    assert capsys.readouterr().err.endswith("argument --n: not an integer: 'x'\n")
    assert run(["bounds", "--a", "1", "--b", "1", "--kmax", "1.5", "--lmax", "1"]) == 1
    assert capsys.readouterr().err.endswith("argument --kmax: not an integer: '1.5'\n")
    assert run(["ns", "--d", "3", "--n", "0"]) == 1
    assert capsys.readouterr().err.endswith("argument --n: must be >= 1, got 0\n")


def test_usage_errors_exit_1(capsys):
    assert run(["eval", "--a", "1", "--b", "1"]) == 1  # missing --n
    assert run(["eval", "--a", "1", "--b", "1", "--n", "3", "--bogus"]) == 1
    assert run(["eval", "--a", "x/y", "--b", "1", "--n", "3"]) == 1
    assert run(["eval", "--a", "1", "--b", "1", "--n", "3", "--cache-dir", "x"]) == 1
    assert run([]) == 1
    capsys.readouterr()


def test_converge_lmin_over_lmax_exits_1(capsys):
    assert run(["converge", "--a", "1", "--b", "1", "--k", "2", "--lmin", "3", "--lmax", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "converge: --lmin must not exceed --lmax" in captured.err


def test_cap_exceeded_exit_3(capsys):
    assert run(["eval", "--a", "1", "--b", "1", "--n", "8", "--cap", "5"]) == 3
    capsys.readouterr()
    assert run(["eval", "--a", "1", "--b", "1", "--n", "8", "--cap", "8"]) == 0
    capsys.readouterr()


def test_cap_defaults_per_subcommand(capsys):
    ab = ["--a", "1", "--b", "1"]
    argvs = {
        "eval": ["eval", *ab, "--n", "3"],
        "bounds": ["bounds", *ab, "--kmax", "1", "--lmax", "1"],
        "converge": ["converge", *ab, "--k", "1", "--lmax", "1"],
        "growth": ["growth", *ab, "--l", "1"],
        "benchmark": ["benchmark", *ab, "--n", "3"],
        "general": ["general", "--file", "f.json", "--n", "3"],
        "matrix": ["matrix", "--file", "f.json", "--n", "3"],
        "ns": ["ns", "--d", "3", "--n", "3"],
    }
    for command, argv in argvs.items():
        want = MATRIX_DEFAULT_CAP if command == "matrix" else DEFAULT_CAP
        assert build_parser().parse_args(argv).cap == want, command
        assert _read(argv).cap == want, command
    # the documented default of 30 admits n = 17 without --cap
    assert run(["eval", *ab, "--n", "17", "--format", "csv"]) == 0
    capsys.readouterr()


#: growth's digit-budget refusals, word for word: the step count, the precision and the digits needed
BUDGET_REFUSALS = [
    (
        "growth --a 1 --b 1 --l 10 --max-digits 100",
        "10 squarings and products at 90-bit precision need 542 digits, over the 100-digit budget",
    ),
    (
        "growth --a 1 --b 1 --l 12 --max-digits 1000",
        "12 squarings and products at 4910-bit precision need 35474 digits, over the 1000-digit budget",
    ),
    (
        "growth --a 3/7 --b 5/3 --d0 11/5 --l 9 --max-digits 5000",
        "9 squarings and products at 2045-bit precision need 11081 digits, over the 5000-digit budget",
    ),
]


@pytest.mark.parametrize("argv, message", BUDGET_REFUSALS)
def test_tolerance_budget_exit_3(argv, message, capsys):
    assert run(argv.split()) == 3
    assert capsys.readouterr() == ("", f"recgrow: {message}\n")


def test_loglog_cap_is_checked_before_the_enclosure(monkeypatch, capsys):
    monkeypatch.setattr(growth_mod, "growth_enclosure", lambda *a, **k: pytest.fail("enclosure computed"))
    assert run(["growth", "--a", "1", "--b", "1", "--l", "16", "--loglog-n", "31"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "recgrow: n_max=31 exceeds cap=30; term sizes grow like 2^n bits\n"


def test_growth_json(capsys):
    doc = _json_out(
        capsys,
        ["growth", "--a", "1", "--b", "1", "--l", "5", "--rtol", "1e-12",
         "--loglog-n", "6", "--format", "json"],
    )
    res = doc["results"]
    assert res["c_lo"].startswith("1.5028368")
    assert res["c_hi"].startswith("1.5028368")
    assert F(res["c_lo"]) <= F(res["c_hi"])
    assert F(res["width"]) < F(1, 10 ** 10)
    assert res["log_log_index"]["n"] == 6
    assert abs(F(res["log_log_index"]["value"]) - F("0.78405947")) < F(1, 10 ** 6)


def test_converge_json(capsys):
    doc = _json_out(
        capsys,
        ["converge", "--a", "1", "--b", "1", "--k", "3", "--lmin", "1", "--lmax", "4", "--format", "json"],
    )
    rows = doc["results"]["rows"]
    gaps = [F(r["gap"]) for r in rows]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    for r in rows:
        assert F(0) <= F(r["ratio_minus_1"]) <= F(r["gap"])


def test_benchmark_json(capsys):
    doc = _json_out(capsys, ["benchmark", "--a", "1", "--b", "1", "--n", "7", "--format", "json"])
    assert doc["results"]["all_dominate"] is True
    assert doc["results"]["rows"][7]["benchmark"] == "18446744073709551616"
    code = run(["benchmark", "--a", "1/4", "--b", "1", "--n", "5"])
    assert code == 2
    capsys.readouterr()


def test_general_command(tmp_path, capsys):
    doc_path = tmp_path / "family.json"
    doc_path.write_text(json.dumps({
        "c1": "1", "c2": "2", "delta": "1", "power": 2,
        "alpha": "1", "beta": "1", "d0": "2",
    }))
    doc = _json_out(capsys, ["general", "--file", str(doc_path), "--n", "6", "--format", "json"])
    assert doc["results"]["sandwich_ok"] is True
    assert doc["results"]["all_contained"] is True
    rows = doc["results"]["rows"]
    assert [r["value"] for r in rows[:4]] == ["2", "5", "26", "677"]
    assert [r["lower"] for r in rows[:4]] == ["2", "4", "16", "256"]
    assert [r["upper"] for r in rows[:4]] == ["2", "8", "128", "32768"]


def test_general_sandwich_violation_exit_2(tmp_path, capsys):
    doc_path = tmp_path / "family.json"
    doc_path.write_text(json.dumps({
        "c1": "1", "c2": "1", "delta": "1", "power": 2,
        "alpha": "1", "beta": "1", "d0": "2",
    }))
    assert run(["general", "--file", str(doc_path), "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert "C2" in captured.err


def test_general_cap_exit_3(tmp_path, capsys):
    doc_path = tmp_path / "family.json"
    doc_path.write_text(json.dumps({
        "c1": "1", "c2": "2", "delta": "1", "power": 2,
        "alpha": "1", "beta": "1", "d0": "2",
    }))
    # the orbit of z^2 + 1 doubles its bits each step: refuse before iterating
    assert run(["general", "--file", str(doc_path), "--n", "18", "--cap", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cap=5" in captured.err
    assert run(["general", "--file", str(doc_path), "--n", "31"]) == 3
    assert "cap=30" in capsys.readouterr().err


class _OrbitReached(Exception):
    pass


@pytest.mark.parametrize(
    "power, n, cap, refused",
    [(10**20, 3, 30, True), (10**20, 1, 66, True), (10**20, 1, 67, False), (3, 18, 30, False), (3, 19, 30, True),
     (4, 15, 30, False), (4, 16, 30, True)],
)
def test_general_power_cap_is_checked_before_the_orbit(power, n, cap, refused, tmp_path, monkeypatch, capsys):
    # terms grow like power^n bits, so the cap refuses power^n > 2^cap; an orbit past it would not finish
    doc_path = tmp_path / "family.json"
    doc = {"c1": "1", "c2": "2", "delta": str(power - 1), "power": power, "alpha": "1", "beta": "1", "d0": "2"}
    doc_path.write_text(json.dumps(doc))

    def orbit(*args):
        raise _OrbitReached

    monkeypatch.setattr(general_mod, "iterate_family", orbit)
    argv = ["general", "--file", str(doc_path), "--n", str(n), "--cap", str(cap)]
    if not refused:
        with pytest.raises(_OrbitReached):
            run(argv)
        return
    assert run(argv) == 3
    message = f"recgrow: power^n_max={power}^{n} exceeds 2^cap=2^{cap}; term sizes grow like power^n bits\n"
    assert capsys.readouterr() == ("", message)


def test_matrix_command(tmp_path, capsys):
    doc_path = tmp_path / "matrix.json"
    eye = [["1", "0"], ["0", "1"]]
    doc_path.write_text(json.dumps({"a": eye, "b": eye, "d0": eye}))
    doc = _json_out(capsys, ["matrix", "--file", str(doc_path), "--n", "4", "--format", "json"])
    assert doc["results"]["norm_dominated"] is True
    rows = doc["results"]["rows"]
    assert rows[3]["matrix"] == [["26", "0"], ["0", "26"]]
    assert rows[3]["norm"] == "26" and rows[3]["envelope"] == "26"


def test_matrix_bad_document_exit_1(tmp_path, capsys):
    doc_path = tmp_path / "matrix.json"
    doc_path.write_text(json.dumps({"a": [["1"]], "b": [["1"]]}))  # missing d0
    assert run(["matrix", "--file", str(doc_path), "--n", "2"]) == 1
    capsys.readouterr()


def test_ns_command(capsys):
    doc = _json_out(
        capsys,
        ["ns", "--d", "3", "--n", "3", "--bytes-per-term", "16",
         "--budget", "1000000", "--format", "json"],
    )
    rows = doc["results"]["rows"]
    assert rows[0] == {"n": 1, "terms": "10", "projected_bytes": "160"}
    assert rows[1] == {"n": 2, "terms": "901", "projected_bytes": "14416"}
    assert doc["results"]["first_over_budget"] == 3
    # d = 3 carries the published-table discrepancy report
    flagged = {r["n"]: r for r in doc["discrepancies"]}
    assert flagged[3]["published"] == "811802"
    assert flagged[3]["recomputed"] == "7306210"
    assert flagged[3]["matches"] is False


def test_eval_d3_params_include_discrepancies(capsys):
    doc = _json_out(capsys, ["eval", "--a", "1", "--b", "9", "--n", "3", "--format", "json"])
    assert any(r["matches"] is False for r in doc["discrepancies"])
    doc = _json_out(capsys, ["eval", "--a", "1", "--b", "4", "--n", "3", "--format", "json"])
    assert doc["discrepancies"] == []


def test_output_is_byte_stable(capsys):
    argv = ["bounds", "--a", "1", "--b", "9", "--kmax", "2", "--lmax", "2", "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    argv_csv = ["eval", "--a", "2", "--b", "1/2", "--n", "6", "--format", "csv"]
    run(argv_csv)
    first = capsys.readouterr().out
    run(argv_csv)
    assert first == capsys.readouterr().out


def test_csv_has_header_and_exact_cells(capsys):
    run(["eval", "--a", "1", "--b", "1", "--n", "5", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "5,458330"


def test_table_format_smoke(capsys):
    assert run(["eval", "--a", "1", "--b", "9", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "7306210" in out and "811802" in out  # values + discrepancy block


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "recgrow.cli", "eval", "--a", "1", "--b", "1", "--n", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "4,677"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_certificate_failure_exit_4(capsys, monkeypatch):
    # a c_hi one grid step low breaks the enclosure: a library fault, not bad input
    upper = growth_mod.nth_root_upper
    monkeypatch.setattr(
        growth_mod, "nth_root_upper", lambda x, l, digits, max_digits: upper(x, l, digits, max_digits) - F(1, 10**digits)
    )
    assert run(["growth", "--a", "1", "--b", "1", "--l", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recgrow: certificate failure: ")


#: every failure class, the exit code it names and the stderr line it prints for the message "m"
_FAILURES = [
    (_UsageError, 1, "m\n"),
    (InvalidParamsError, 2, "recgrow: invalid parameters: m\n"),
    (NonIntegerParamsError, 2, "recgrow: m\n"),
    (CapExceededError, 3, "recgrow: m\n"),
    (ToleranceUnachievableError, 3, "recgrow: m\n"),
    (CertificateError, 4, "recgrow: certificate failure: m\n"),
]


@pytest.mark.parametrize("cls, code, err", _FAILURES, ids=[cls.__name__ for cls, *_ in _FAILURES])
def test_each_failure_class_exits_with_its_code(cls, code, err, monkeypatch, capsys):
    def fail(args):
        raise cls("m")

    monkeypatch.setattr(twins_mod, "_cmd_eval", fail)
    assert run(["eval", "--a", "1", "--b", "1", "--n", "3"]) == code
    assert capsys.readouterr() == ("", err)


def test_every_failure_class_names_a_code():
    # a class left out of _FAILURES would reach run untested; a new one must say what it exits with
    found, pending = set(), [RecgrowError]
    while pending:
        found |= set(subclasses := pending.pop().__subclasses__())
        pending += subclasses
    assert found == {cls for cls, *_ in _FAILURES}


def test_huge_rtol_error_renders_exactly():
    # a 5000-digit denominator is reported in the range message, not as a digit-limit error
    rtol = "1/" + "1" * 5000
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "recgrow.cli"]
        + ["growth", "--a", "1", "--b", "1", "--l", "3", "--rtol", rtol],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"recgrow: invalid parameters: rtol must lie in [{F(1, 10**30)}, 1), got {rtol}\n"

def test_ns_deep_subprocess():
    # D(13) for d = 3 has over 4300 digits, the interpreter's default str() limit
    proc = subprocess.run(
        [sys.executable, "-m", "recgrow.cli", "ns", "--d", "3", "--n", "13", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout)["results"]["rows"][-1]
    assert last["n"] == 13
    assert parse_rational(last["terms"]) == term_count(3, 13)


_MPMATH_LOADED = """
import sys
import recgrow.cli

print("mpmath" in sys.modules)
sys.argv[1:] = {argv!r}
try:
    recgrow.cli.main()
except SystemExit as exit:
    print(exit.code, "mpmath" in sys.modules, file=sys.stderr)
"""


def test_cli_import_leaves_mpmath_unloaded():
    # no code path of the package uses mpmath, so neither importing the CLI nor
    # running the log-log diagnostic may load it
    argv = "growth --a 1 --b 9 --l 8 --loglog-n 12".split()
    proc = subprocess.run([sys.executable, "-c", _MPMATH_LOADED.format(argv=argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False\n")
    assert "log_log_index(n=12)" in proc.stdout
    assert proc.stderr == "0 False\n"


def _exact_power_cmp(grid_value: str, n: int, x: Fraction) -> int:
    """sign(v^n - x) for the decimal string v, by exact decimal arithmetic on
    the scaled radicand: r^n * den(x) against num(x) * 10^(s*n)."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    whole, _, frac = grid_value.partition(".")
    r = ctx.create_decimal(whole + frac)
    left = ctx.multiply(ctx.power(r, n), ctx.create_decimal(x.denominator))
    right = ctx.scaleb(ctx.create_decimal(x.numerator), len(frac) * n)
    return int(ctx.compare(left, right))


def _grid_step(value: str, step: int) -> str:
    whole, _, frac = value.partition(".")
    r = str(int(whole + frac) + step).rjust(len(frac) + 1, "0")
    return f"{r[:-len(frac)]}.{r[-len(frac):]}"


def test_growth_l12_fits_the_default_budget(capsys):
    # the 2^12 x digits radicand (~6M digits) is over the 2M-digit default,
    # but nothing that size is built, so the enclosure is computed
    doc = _json_out(capsys, ["growth", "--a", "1", "--b", "1", "--l", "12", "--format", "json"])
    params = Params(1, 1)
    table = evaluate(params, 12)
    x_lo = table[12]
    x_hi = x_lo * q_factor(params, table, 12)
    c_lo, c_hi = doc["results"]["c_lo"], doc["results"]["c_hi"]
    n = 2 ** 12
    # each endpoint is the tightest grid point on its side of the exact radicand
    assert _exact_power_cmp(c_lo, n, x_lo) <= 0 < _exact_power_cmp(_grid_step(c_lo, 1), n, x_lo)
    assert _exact_power_cmp(c_hi, n, x_hi) >= 0 > _exact_power_cmp(_grid_step(c_hi, -1), n, x_hi)


def test_parser_defaults_are_the_library_defaults():
    from recgrow.matrixrec import MATRIX_DEFAULT_CAP
    from recgrow.roots import DEFAULT_MAX_DIGITS

    parser = build_parser()
    assert parser.parse_args("growth --a 1 --b 1 --l 1".split()).max_digits == DEFAULT_MAX_DIGITS
    assert parser.parse_args("matrix --file x --n 1".split()).cap == MATRIX_DEFAULT_CAP
    assert parser.parse_args("eval --a 1 --b 1 --n 1".split()).cap == DEFAULT_CAP


# ---------------------------------------------------------------------------
# the option table's reader against argparse

#: a value that converts, per converter of the table (None: --file, which takes any string)
_GOOD = {
    cli._rational: ["1", "3/2", "1e-3", ".5"], cli._nonneg_int: ["0", "3"], cli._pos_int: ["1", "4"], None: ["f.json"],
}
_ANY = ["", "x", "-1", "-1/2", "-.5", "1/0", " 2", "+2", "1_0", "2.5", "-h", "--n", "json", "f.json", "1", "0"]


def _good(kw) -> list:
    return list(kw.get("choices") or _GOOD[kw.get("type")])


@st.composite
def _argvs(draw):
    """A command line from one subcommand's row: mostly well formed, with bad values and argparse-only forms."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    pairs = []
    for flag, kw in _COMMANDS[command][2]:
        if draw(st.integers(0, 9)) < (9 if kw.get("required") else 4):
            pairs.append([flag, draw(st.sampled_from(_good(kw) if draw(st.integers(0, 7)) else _ANY))])
    pairs = draw(st.permutations(pairs))
    for change in draw(st.lists(st.sampled_from(["repeat", "equals", "abbrev", "help", "stray"]), max_size=2)):
        if change == "repeat" and pairs:
            pairs.append(list(draw(st.sampled_from(pairs))))
        elif change == "equals" and pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = ["=".join(pairs[i])]
        elif change == "abbrev" and pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i][0] = pairs[i][0][: draw(st.integers(2, max(2, len(pairs[i][0]) - 1)))]
        elif change in ("help", "stray"):
            token = "-h" if change == "help" else draw(st.sampled_from(["x", "--bogus", "-1", "--", "eval", "--cap"]))
            pairs.insert(draw(st.integers(0, len(pairs))), [token])
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_reader_agrees_with_argparse(argv):
    # whatever the reader accepts, argparse reads the same; the rest it leaves to argparse
    args = _read(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_reader_reads_every_well_formed_line():
    for command, (_, _, options) in _COMMANDS.items():
        required = [t for flag, kw in options if kw.get("required") for t in (flag, _good(kw)[0])]
        every = [t for flag, kw in options for t in (flag, _good(kw)[-1])]
        for argv in ([command, *required], [command, *every]):
            assert _read(argv) is not None, argv
            assert vars(_read(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "line",
    [
        "eval --a 1 --b 1 --n 3 -h",
        "eval --a 1 --b 1 --n=3",
        "eval --a 1 --b 1 --n 3 --form json",
        "eval --a 1 --b 1 --n 3 --n 4",
        "eval --a 1 --b -1 --n 3",
        "eval --a 1 --b 1 --n 3 x",
        "eval --a 1 --b 1",
        "eval --a 1 --b 1 --n x",
        "eval --a 1 --b 1 --n 3 --format xml",
        "eval --a 1 --b 1 --n 3 --bogus 1",
        "--help",
        "",
        "evaluate --a 1",
    ],
)
def test_reader_leaves_the_rest_to_argparse(line):
    assert _read(line.split()) is None


def test_run_is_the_same_without_the_reader(tmp_path, monkeypatch, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "c1": "1", "c2": "2", "delta": "1", "power": 2,
        "alpha": "1", "beta": "1", "d0": "2",
    }))
    eye = [["1", "0"], ["0", "1"]]
    (tmp_path / "matrix.json").write_text(json.dumps({"a": eye, "b": eye, "d0": eye}))
    lines = [
        "eval --a 1 --b 1 --n 6 --format json",
        "eval --a 1/2 --b 1/2 --d0 35/2 --n 5 --format csv",
        "bounds --a 1 --b 9 --kmax 2 --lmax 2",
        "converge --a 1 --b 1 --k 2 --lmin 2 --lmax 3 --format json",
        "growth --a 1 --b 1 --l 4 --loglog-n 5 --format json",
        "benchmark --a 1 --b 1 --n 5 --cap 6",
        f"general --file {family} --n 4 --format json",
        f"matrix --file {tmp_path / 'matrix.json'} --n 3 --format csv",
        "ns --d 3 --n 3 --bytes-per-term 16 --budget 1000000",
        "eval --a 1 --b 0 --n 3",
        "eval --a 1 --b 1 --n 8 --cap 5",
        "converge --a 1 --b 1 --k 2 --lmin 4 --lmax 3",
        "eval --a 1 --b 1 --n x",
        "eval --a 1 --b 1 --n 3 --n 4 --format=json",
        f"general --file {tmp_path / 'missing.json'} --n 3",
        "growth --a 1 --b 1 --l 10 --max-digits 100",
    ]
    with_reader = []
    for line in lines:
        with_reader.append((run(line.split()), *capsys.readouterr()))
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    for line, want in zip(lines, with_reader):
        assert (run(line.split()), *capsys.readouterr()) == want, line


# one line per subcommand that builds Decimal values, with big and rational values in each format
_CONTEXT_LINES = [
    "eval --a 1/2 --b 1/2 --d0 35/2 --n 12 --format json",
    "bounds --a 3/7 --b 5/3 --d0 11/5 --kmax 3 --lmax 3 --format csv",
    "converge --a 1 --b 1 --k 4 --lmax 4",
    "benchmark --a 2 --b 3 --d0 7/2 --n 9 --format json",
    "growth --a 1 --b 1 --l 6 --loglog-n 9 --format json",
    "general --file {family} --n 12 --format csv",
    "ns --d 3 --n 12 --format json",
]


# the strict context of the test below, set as decimal.DefaultContext before recgrow is imported, so
# that every context recgrow builds, at import or per call, takes from it each field it does not name
_STRICT_DEFAULT = """
import decimal
import sys

default = decimal.DefaultContext
default.prec, default.rounding, default.Emax, default.Emin = 5, decimal.ROUND_UP, 9, -9
default.traps[decimal.Inexact] = default.traps[decimal.Rounded] = True

import recgrow.cli as cli

sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.parametrize("line", _CONTEXT_LINES)
def test_output_ignores_the_thread_decimal_context(line, tmp_path, capsys):
    # every Decimal operation names its own context: under a current context of 5 digits that rounds up,
    # with tight exponents and traps on any rounding, a reliance on it would change or stop the output
    family = tmp_path / "family.json"
    doc = {"c1": "1", "c2": "2", "delta": "1", "power": 2, "alpha": "1", "beta": "1", "d0": "2"}
    family.write_text(json.dumps(doc))
    argv = line.format(family=family).split()
    plain = (run(argv), *capsys.readouterr())
    strict = decimal.Context(prec=5, rounding=decimal.ROUND_UP, Emax=9, Emin=-9)
    strict.traps[decimal.Inexact] = strict.traps[decimal.Rounded] = True
    with decimal.localcontext(strict):
        assert (run(argv), *capsys.readouterr()) == plain
    assert plain[0] == 0, plain[2]
    proc = subprocess.run([sys.executable, "-c", _STRICT_DEFAULT, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == plain
