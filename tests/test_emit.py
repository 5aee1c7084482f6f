"""Streamed reports: stdout receives the canonical document in bounded batches, a report's big values
are text only while they are written, and a reader that closes stdout early ends the run with exit
code 141 and nothing on stderr."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import recgrow.cli as cli
import recgrow.report as report_mod
from recgrow.inputs import build_parser
from recgrow.serialize import TwinText

_BOUNDS_9 = "bounds --a 1 --b 1 --kmax 9 --lmax 9 --format json"  # 1,308,034 bytes
_DOCUMENTS = {
    "family.json": {"c1": "1", "c2": "2", "delta": "1", "power": 2, "alpha": "1", "beta": "1", "d0": "2"},
    "matrix.json": {"a": [["1", "0"], ["0", "1"]], "b": [["1/2", "1"], ["0", "1"]], "d0": [["1", "0"], ["0", "1"]]},
}


def _report(command: str):
    args = build_parser(cli._COMMANDS, cli.__doc__.splitlines()[0]).parse_args(command.split())
    return cli._handler(args.command)(args), args.format


class _Stdout:
    """A stdout that records the length of every write, and its text if asked to."""

    def __init__(self, keep: bool):
        self.keep, self.writes, self.lengths = keep, [], []

    def write(self, text: str) -> int:
        self.lengths.append(len(text))
        if self.keep:
            self.writes.append(text)
        return len(text)


def _emit(report, fmt: str, keep: bool, monkeypatch) -> _Stdout:
    out = _Stdout(keep)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        report_mod._emit(report, fmt)
    return out


@pytest.mark.parametrize(
    "command",
    [
        _BOUNDS_9,
        "eval --a 1 --b 1 --n 20 --format json",
        "eval --a 1 --b 1 --n 20 --format csv",
        "bounds --a 1/2 --b 1/2 --d0 35/2 --kmax 4 --lmax 4 --format csv",
        "bounds --a 1 --b 1 --kmax 6 --lmax 6 --format table",
        "ns --d 3 --n 4 --format json",
        "converge --a 3/7 --b 5/3 --d0 11/5 --k 3 --lmax 4 --format csv",
        "benchmark --a 1 --b 1 --n 6 --format csv",
        "growth --a 1 --b 9 --l 8 --loglog-n 12 --format csv",
        "general --file {tmp}/family.json --n 6 --format csv",
        "matrix --file {tmp}/matrix.json --n 4 --format csv",
        "ns --d 3 --n 4 --budget 1000000 --format csv",
    ],
)
def test_writes_are_bounded_batches_of_the_canonical_document(command, tmp_path, monkeypatch):
    for name, doc in _DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    report, fmt = _report(command.format(tmp=tmp_path))
    writes = _emit(report, fmt, True, monkeypatch).writes
    text = "".join(writes)
    if fmt == "json":
        doc = {name: getattr(report, name) for name in ("command", "params", "results", "discrepancies")}
        doc["schema_version"] = report_mod.SCHEMA_VERSION
        assert text == json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "), default=str) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([report.csv_header, *report.csv_rows])
        assert text == buf.getvalue()
    render = {"json": report_mod._render_json, "csv": report_mod._render_csv, "table": report_mod._render_table}[fmt]
    # a write longer than a batch is one chunk of the document, written as it is
    assert [w for w in writes if len(w) > report_mod._BATCH] == [c for c in render(report) if len(c) > report_mod._BATCH]
    # and batches are full: each write but the last ended where the next chunk would not fit
    assert all(len(a) + len(b) > report_mod._BATCH for a, b in zip(writes, writes[1:]))


@pytest.mark.parametrize(
    "command, size",
    [(_BOUNDS_9, 1_308_034), ("eval --a 1/2 --b 1/2 --d0 35/2 --n 17 --format json", 563_205)],
)
def test_emission_holds_one_value_as_text_at_a_time(command, size, monkeypatch):
    report, fmt = _report(command)
    values = [v for row in report.csv_rows for v in row if type(v) is TwinText]
    longest = max(len(str(part)) for v in values for part in (v.num, v.den))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        written = sum(_emit(report, fmt, False, monkeypatch).lengths)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert written == size
    # a value's parts become text one at a time, and neither "num/den" nor an escaped copy is made;
    # the whole document as one string, or its values all as text, would be ten times the longest part
    assert peak <= 2 * longest + 2 * report_mod._BATCH, (peak, longest)


def test_json_reports_serialize_twin_texts_and_nothing_else():
    report = report_mod.Report("x", {}, {"value": Fraction(1, 2)}, [], [])
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        list(report_mod._render_json(report))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_early_ends_the_run_with_141(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "recgrow.cli", *_BOUNDS_9.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert head.startswith(b'{\n  "command": "bounds",')
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")
