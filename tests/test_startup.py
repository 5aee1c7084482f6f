"""What a fresh interpreter loads: each subcommand imports only the modules it runs."""

import json
import subprocess
import sys

import pytest

# runs the CLI as `python -m recgrow.cli` does, then prints the loaded module names on a last line
_RUN_MAIN = """
import runpy, sys
sys.argv = ["recgrow", *{argv!r}]
try:
    runpy.run_module("recgrow.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print()
print(code, *sorted(sys.modules))
"""

_IMPORT = "import sys, {module}; print(0, *sorted(sys.modules))"

SUBCOMMAND_MODULES = {
    f"recgrow.{name}" for name in ("bounds", "growth", "general", "loglog", "matrixrec", "nsmodel", "roots", "twins")
}

#: what only some runs load: inputs for a line the option table's reader declines and for the input
#: documents of general and matrix, exact for the decimal twins and for printing an int over 4,000 bits
OCCASIONAL_MODULES = {"recgrow.exact", "recgrow.inputs"}

#: exact numbers beyond int: growth holds its values as int pairs, so only the other subcommands load these
NUMBER_MODULES = {"_decimal", "decimal", "fractions", "numbers"}

#: the input documents of the general and matrix cases, written to each case's working directory; a claim
#: that general accepts has an integer exponent, so its envelopes take exact powers and never load roots
DOCUMENTS = {
    "family.json": {"c1": "1", "c2": "2", "delta": "1", "power": 2, "alpha": "1", "beta": "1", "d0": "2"},
    "matrix.json": {"a": [["1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]], "d0": [["1", "0"], ["0", "1"]]},
}

CASES = {
    "import recgrow": (
        _IMPORT.format(module="recgrow"),
        {"dataclasses", "recgrow.cli", "recgrow.errors", "recgrow.pairs", "recgrow.recurrence", "recgrow.report"}
        | {"recgrow.serialize"}
        | SUBCOMMAND_MODULES
        | OCCASIONAL_MODULES,
    ),
    "import recgrow.cli": (
        _IMPORT.format(module="recgrow.cli"),
        {"dataclasses", "inspect"} | SUBCOMMAND_MODULES | OCCASIONAL_MODULES | NUMBER_MODULES,
    ),
    "eval": (
        _RUN_MAIN.format(argv=["eval", "--a", "1", "--b", "1", "--n", "4", "--format", "json"]),
        {"json", "recgrow.bounds", "recgrow.cli", "recgrow.inputs", "recgrow.roots"},
    ),
    "bounds": (
        _RUN_MAIN.format(argv=["bounds", "--a", "1", "--b", "1", "--kmax", "3", "--lmax", "3", "--format", "json"]),
        {"json", "recgrow.bounds", "recgrow.cli", "recgrow.inputs", "recgrow.roots"},
    ),
    "converge": (
        _RUN_MAIN.format(argv=["converge", "--a", "1", "--b", "1", "--k", "3", "--lmax", "6", "--format", "json"]),
        {"json", "recgrow.bounds", "recgrow.cli", "recgrow.inputs", "recgrow.roots"},
    ),
    "growth": (
        _RUN_MAIN.format(argv=["growth", "--a", "1", "--b", "1", "--l", "4", "--format", "json"]),
        # the digit budget is an argument of the root calls, not a context variable
        {"contextvars", "json", "recgrow.cli"}
        | OCCASIONAL_MODULES
        | NUMBER_MODULES
        | SUBCOMMAND_MODULES - {"recgrow.growth", "recgrow.roots"},
    ),
    "growth --loglog-n": (
        _RUN_MAIN.format(argv=["growth", "--a", "1", "--b", "1", "--l", "4", "--loglog-n", "5", "--format", "json"]),
        {"contextvars", "json", "recgrow.cli"}
        | OCCASIONAL_MODULES
        | NUMBER_MODULES
        | SUBCOMMAND_MODULES - {"recgrow.growth", "recgrow.loglog", "recgrow.roots"},
    ),
    "general": (
        _RUN_MAIN.format(argv=["general", "--file", "family.json", "--n", "3", "--format", "json"]),
        {"recgrow.bounds", "recgrow.cli", "recgrow.exact", "recgrow.growth", "recgrow.loglog", "recgrow.roots", "recgrow.twins"},
    ),
    "matrix": (
        _RUN_MAIN.format(argv=["matrix", "--file", "matrix.json", "--n", "3", "--format", "json"]),
        {"recgrow.bounds", "recgrow.cli", "recgrow.exact", "recgrow.growth", "recgrow.loglog", "recgrow.roots", "recgrow.twins"},
    ),
    "benchmark": (
        _RUN_MAIN.format(argv=["benchmark", "--a", "1", "--b", "1", "--n", "4", "--format", "json"]),
        {"json", "recgrow.cli", "recgrow.inputs"} | SUBCOMMAND_MODULES - {"recgrow.twins"},
    ),
    "ns": (
        _RUN_MAIN.format(argv=["ns", "--d", "3", "--n", "4", "--format", "json"]),
        {"json", "recgrow.bounds", "recgrow.cli", "recgrow.roots", "recgrow.twins"} | OCCASIONAL_MODULES,
    ),
}


#: what no case loads: a well-formed command line is read without argparse, and gettext and locale come with it
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_interpreter_loads_only_what_it_runs(case, tmp_path):
    _check_loaded([], case, PARSER_MODULES, tmp_path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_interpreter_without_site_loads_no_typing(case, tmp_path):
    # site can preload typing (through a .pth file), which would hide an import of it; -S starts without site
    _check_loaded(["-S"], case, PARSER_MODULES | {"typing"}, tmp_path)


def _check_loaded(flags, case, also_unwanted, cwd):
    code, unwanted = CASES[case]
    unwanted = unwanted | also_unwanted
    for name, doc in DOCUMENTS.items():
        (cwd / name).write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    exit_code, *modules = proc.stdout.splitlines()[-1].split()
    assert exit_code == "0", proc.stderr
    assert "recgrow" in modules
    assert sorted(unwanted & set(modules)) == []


# runs the CLI as _RUN_MAIN does, and at its sys.exit prints, for the module run as __main__ and each loaded recgrow
# module, the names it holds of those only some runs need; __main__ is recgrow.cli only while the run lasts
_RUN_GLOBALS = """
import runpy, sys
sys.argv = ["recgrow", *{argv!r}]
real_exit = sys.exit


def exit_(code=None):
    main = sys.modules["__main__"]
    modules = {{"__main__=" + main.__spec__.name: main}}
    modules.update((name, m) for name, m in sys.modules.items() if name.split(".")[0] == "recgrow")
    print()
    print(code, *(f"{{name}}:{{','.join(sorted({names!r} & set(vars(m))))}}" for name, m in sorted(modules.items())))
    real_exit(code)


sys.exit = exit_
runpy.run_module("recgrow.cli", run_name="__main__", alter_sys=True)
"""

#: globals that a growth run neither runs nor needs: the argparse parser, the input-document reader, exact decimals
OCCASIONAL_NAMES = {"build_parser", "_read_document", "to_decimal", "EXACT"}


def test_growth_holds_no_occasional_global(tmp_path):
    argv = ["growth", "--a", "1", "--b", "1", "--l", "4", "--format", "json"]
    code = _RUN_GLOBALS.format(argv=argv, names=OCCASIONAL_NAMES)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    exit_code, *held = proc.stdout.splitlines()[-1].split()
    assert exit_code == "0", proc.stderr
    held = dict(entry.split(":") for entry in held)
    assert {"__main__=recgrow.cli", "recgrow.growth", "recgrow.report", "recgrow.serialize"} <= set(held)
    assert {name: found for name, found in held.items() if found} == {}
