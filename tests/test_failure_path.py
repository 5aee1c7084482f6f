"""The failure path of the CLI: the error's type alone picks the exit code and stderr line,
bad input documents are usage errors, and a fault in the library propagates."""

import itertools
import json
import subprocess
import sys

import pytest

import recgrow.growth as growth_mod
import recgrow.loglog as loglog
from recgrow.cli import run

_FAMILY = {"c1": "1", "c2": "2", "delta": "1", "power": 2, "alpha": "1", "beta": "1", "d0": "2"}
_MATRIX = {"a": [["1"]], "b": [["1"]], "d0": [["1"]]}

#: argv (a document's name stands for its file), the document, and the exact stderr of each exit-2 input error
INVALID = {
    "rtol": (
        ["growth", "--a", "1", "--b", "1", "--l", "3", "--rtol", "2"],
        None,
        "recgrow: invalid parameters: rtol must lie in [1/1000000000000000000000000000000, 1), got 2\n",
    ),
    "double log": (
        ["growth", "--a", "1/4", "--b", "1", "--d0", "1/2", "--l", "1", "--loglog-n", "1"],
        None,
        "recgrow: invalid parameters: b*D(n) must exceed 1 for the double log, got 1/2\n",
    ),
    "benchmark regime": (
        ["benchmark", "--a", "1/2", "--b", "1", "--n", "3"],
        None,
        "recgrow: invalid parameters: benchmark comparison needs integer a, b >= 1 and d0 >= 1; got (1/2, 1, 1)\n",
    ),
    "general seed": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "d0": "1/2"},
        "recgrow: invalid parameters: seed must be >= 1, got 1/2\n",
    ),
    "orbit below 1": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c1": "1/4", "c2": "4", "alpha": "1/4", "beta": "0", "d0": "1"},
        "recgrow: invalid parameters: sandwich condition is only claimed for z >= 1\n",
    ),
    "envelope below 1": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c1": "1/4", "c2": "4", "beta": "0", "d0": "1"},
        "recgrow: invalid parameters: lower envelope left the z >= 1 regime at step 1 (L=1/4); "
        "increase C1 or the seed\n",
    ),
    "b = 0": (
        ["eval", "--a", "1", "--b", "0", "--n", "3"],
        None,
        "recgrow: invalid parameters, failed condition(s): b > 0, 4ab >= 1\n",
    ),
    "delta = 0": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "delta": "0"},
        "recgrow: invalid parameters: delta must be positive, got 0\n",
    ),
    "C1 = 0": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c1": "0"},
        "recgrow: invalid parameters: need 0 < C1 <= C2, got C1=0, C2=2\n",
    ),
    "C1 > C2": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c1": "5/2"},
        "recgrow: invalid parameters: need 0 < C1 <= C2, got C1=5/2, C2=2\n",
    ),
    "power = 0": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "power": 0},
        "recgrow: invalid parameters: power must be >= 1, got 0\n",
    ),
    "negative matrix entry": (
        ["matrix", "--file", "doc", "--n", "3"],
        {**_MATRIX, "b": [["-1"]]},
        "recgrow: invalid parameters: matrix b has a negative entry\n",
    ),
    # claims that hold at every orbit value but not for every z >= 1: z^2 + 1 outgrows 10^50 * z^(3/2)
    # past z = 10^100 (and 10^50 * z^(8/5) later), even at --n 0, where no step is taken; and
    # (z^2 + 1)/z^2 = 1 + z^-2 falls to 1, below C1, as z grows
    "power = 1+delta": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c2": str(10**50), "delta": "1/2"},
        "recgrow: invalid parameters, failed condition(s): power = 1+delta\n",
    ),
    "delta = 3/5": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c2": str(10**50), "delta": "3/5"},
        "recgrow: invalid parameters, failed condition(s): power = 1+delta\n",
    ),
    "no step taken": (
        ["general", "--file", "doc", "--n", "0"],
        {**_FAMILY, "c2": str(10**50), "delta": "1/2"},
        "recgrow: invalid parameters, failed condition(s): power = 1+delta\n",
    ),
    "C1 at the limit": (
        ["general", "--file", "doc", "--n", "3"],
        {**_FAMILY, "c1": "1000000000000000000000000000001/1000000000000000000000000000000"},
        "recgrow: invalid parameters, failed condition(s): C1*z^(1+delta) <= F at n=0, C1*z^(1+delta) <= F at n=1, "
        "C1*z^(1+delta) <= F at n=2\n",
    ),
}


def _argv(tmp_path, argv, doc):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "doc" else a for a in argv]
    return argv


@pytest.mark.parametrize("case", INVALID)
def test_invalid_input_exits_2_with_its_message(case, tmp_path, capsys):
    argv, doc, err = INVALID[case]
    assert run(_argv(tmp_path, argv, doc)) == 2
    assert capsys.readouterr() == ("", err)


def test_internal_value_error_propagates(monkeypatch, capsys):
    # a fault in the library is not invalid input: it must surface with its traceback, not as exit 2
    def fault(target):
        raise ValueError("internal fault")

    monkeypatch.setattr(growth_mod, "digits_for", fault)
    with pytest.raises(ValueError, match="internal fault"):
        run(["growth", "--a", "1", "--b", "1", "--l", "3"])
    assert capsys.readouterr() == ("", "")


_GRID = "recgrow: certificate failure: grid 10^-0 is coarser than rtol=1/1000000000000 at c_lo=1\n"


def test_grid_coarser_than_rtol_exits_4(monkeypatch, capsys):
    # a grid of whole numbers cannot hold the root to rtol, whatever digits_for asked for
    monkeypatch.setattr(growth_mod, "digits_for", lambda target: 0)
    assert run(["growth", "--a", "1", "--b", "1", "--l", "3"]) == 4
    assert capsys.readouterr() == ("", _GRID)


_GRID_UNDER_O = """
import sys
import recgrow.growth as growth
from recgrow.cli import run

assert not __debug__
growth.digits_for = lambda target: 0
sys.exit(run(["growth", "--a", "1", "--b", "1", "--l", "3"]))
"""


def test_grid_check_survives_optimize_flag():
    proc = subprocess.run([sys.executable, "-O", "-c", _GRID_UNDER_O], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", _GRID)


def test_unstable_log_log_index_exits_3(monkeypatch, capsys):
    # passes that never agree exhaust the precision ladder: the tolerance is unachievable, not a fault
    values = itertools.cycle([(1, 1), (2, 1)])
    monkeypatch.setattr(loglog, "_log_log_pass", lambda x, n, prec: next(values))
    assert run(["growth", "--a", "1", "--b", "1", "--l", "3", "--loglog-n", "5"]) == 3
    assert capsys.readouterr() == ("", "recgrow: log-log index did not stabilize to rtol=1/1000000000000\n")


#: command, document, and the start of the message after "bad <kind> document: "
BAD_DOCUMENTS = {
    "number coefficient": ("general", {**_FAMILY, "alpha": 1}, "expected a rational string, got int"),
    "zero denominator": ("general", {**_FAMILY, "c1": "1/0"}, "Fraction(1, 0)"),
    "float power": ("general", {**_FAMILY, "power": 2.7}, "power must be an integer, got float"),
    "boolean power": ("general", {**_FAMILY, "power": True}, "power must be an integer, got bool"),
    "short alpha": ("general", {**_FAMILY, "alpha": ["1", "1", "1"]}, "alpha has 3 entries, fewer than --n 4"),
    "short beta": ("general", {**_FAMILY, "beta": ["1", "1", "1"]}, "beta has 3 entries, fewer than --n 4"),
    "number entry": ("matrix", {**_MATRIX, "a": [[1]]}, "expected a rational string, got int"),
    "zero denominator entry": ("matrix", {**_MATRIX, "d0": [["1/0"]]}, "Fraction(1, 0)"),
    # a string iterates as its characters, so "2" would be read as [[2]] and ["1/2"] as [["1", "/", "2"]]
    "string matrices": ("matrix", {**_MATRIX, "b": "2", "d0": "3"}, "b must be a list of lists of rational strings"),
    "flat matrix": ("matrix", {**_MATRIX, "a": ["1/2"]}, "a must be a list of lists of rational strings"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_document_exits_1(case, tmp_path, capsys):
    command, doc, message = BAD_DOCUMENTS[case]
    kind = {"general": "nonlinearity", "matrix": "matrix"}[command]
    assert run(_argv(tmp_path, [command, "--file", "doc", "--n", "4"], doc)) == 1
    assert capsys.readouterr() == ("", f"bad {kind} document: {message}\n")


@pytest.mark.parametrize("command", ["general", "matrix"])
def test_deeply_nested_document_exits_1(command, tmp_path, capsys):
    # json's decoder recurses once per bracket: too deep a document is unreadable, not a fault
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run([command, "--file", str(path), "--n", "3"]) == 1
    message = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    assert capsys.readouterr() == ("", f"cannot read JSON document {path}: {message}\n")


@pytest.mark.parametrize("power", [3, "3", " 3 ", "0_3"])
def test_integer_powers_are_read_as_before(power, tmp_path, capsys):
    doc = {**_FAMILY, "delta": "2", "power": power, "alpha": ["1", "1", "1"]}
    assert run(_argv(tmp_path, ["general", "--file", "doc", "--n", "3", "--format", "json"], doc)) == 0
    assert json.loads(capsys.readouterr().out)["params"]["power"] == 3
