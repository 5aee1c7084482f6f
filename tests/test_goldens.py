"""The CLI's output bytes, pinned in one table, `goldens.json`, and replayed in-process.

The table maps each input document's file name to its JSON (`documents`), and each full command line to
the sha256 of its stdout, its exit code and its exact stderr (`commands`).  Every command line ends in
`--format json|csv|table` or in `--help`.  Help is replayed at 80 columns, and only on CPython 3.11,
whose argparse layout it records.

Run as a script, this module records the given command lines into the table, with the `recgrow` on
PYTHONPATH; to record from another commit, run it from an unpacked copy of that commit (`git archive`):

    PYTHONPATH=src python tests/test_goldens.py 'growth --a 1 --b 1 --l 10 --format json' ...
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from recgrow.cli import _COMMANDS, run

TABLE_PATH = Path(__file__).with_name("goldens.json")
TABLE = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
COMMANDS = TABLE["commands"]


def replay(command: str, directory: Path) -> dict:
    """The record of one command line, run in directory with the table's documents written there."""
    for name, doc in TABLE["documents"].items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(directory)  # contextlib.chdir is new in 3.11; the package supports 3.10
        try:
            code = run(command.split())
        finally:
            os.chdir(cwd)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code, "stderr": err.getvalue()}


_HELP = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in other versions")


@pytest.mark.parametrize("command", [pytest.param(c, marks=_HELP) if c.endswith("--help") else c for c in COMMANDS])
def test_command_reproduces_its_record(command, tmp_path):
    assert replay(command, tmp_path) == COMMANDS[command]


def test_every_subcommand_succeeds_in_every_format():
    covered = {(key.split()[0], key.split()[-1]) for key, record in COMMANDS.items() if record["exit"] == 0}
    assert {(name, fmt) for name in _COMMANDS for fmt in ("json", "csv", "table")} <= covered


def test_every_command_line_ends_in_a_format_or_help():
    assert [key for key in COMMANDS if not re.fullmatch(r".+ --format (json|csv|table)|(.+ )?--help", key)] == []


def test_every_file_is_a_document_of_the_table():
    files = {words[i + 1] for words in map(str.split, COMMANDS) for i, word in enumerate(words) if word == "--file"}
    assert files == set(TABLE["documents"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for command in sys.argv[1:]:
            COMMANDS[command] = replay(command, Path(directory))
            print(command, COMMANDS[command])
    TABLE_PATH.write_text(json.dumps(TABLE, indent=2, sort_keys=True) + "\n", encoding="utf-8")
