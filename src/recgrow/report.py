"""Reports: one subcommand's output, its three renderers and the helpers the handlers share.

Every subcommand emits one report in the requested format (table, json, csv).
JSON reports share the top-level shape

    {schema_version, command, params, results, discrepancies}

with all big values as exact strings, and are byte-stable for a fixed
command line.  No handler lives here: each subcommand's lives in the module it
runs (``twins._cmd_eval``, ``_cmd_bounds``, ``_cmd_converge`` and
``_cmd_benchmark``, ``growth._cmd_growth``, ``general._cmd_general``,
``matrixrec._cmd_matrix``, ``nsmodel._cmd_ns``), so each invocation compiles
only the handler it runs, since no bytecode cache may be at hand.  For the same
reason the reader of ``general``'s and ``matrix``'s input documents,
``_read_document``, lives in :mod:`recgrow.inputs`.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .pairs import _fraction, as_pair, check_params
from .recurrence import Params
from .serialize import frac_str, json_chunks, pair_str

SCHEMA_VERSION = 1

#: the most chars one write to stdout carries, unless it is one longer chunk of the report
_BATCH = 1 << 16


class Report(
    namedtuple("Report", "command params results csv_header csv_rows table_lines discrepancies", defaults=((), ()))
):
    """One subcommand's output, renderable as table, json, or csv."""

    __slots__ = ()


def _render_json(report: Report):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": report.command,
        "params": report.params,
        "results": report.results,
        "discrepancies": report.discrepancies,
    }
    return json_chunks(doc)


def _render_csv(report: Report):
    # no cell needs csv quoting: none holds a comma, quote or line break, and no row is one empty cell
    # (cells are ints, bools, checked twins, frac_str, pair_str and fixed_str text, matrix cells "1 0;0 1", names)
    for row in (report.csv_header, *report.csv_rows):
        yield ",".join(map(str, row)) + "\n"


def _render_table(report: Report):
    yield f"# {report.command}\n"
    for key in sorted(report.params):
        value = report.params[key]
        if not isinstance(value, str):
            import json

            value = json.dumps(value)
        yield f"{key} = {value}\n"
    for line in report.table_lines:
        yield line + "\n"
    if report.csv_rows:
        # a cell is text twice, for the widths and as it is written, so the cells are never all text at once
        widths = [min(28, max(len(str(c)) for c in column)) for column in zip(report.csv_header, *report.csv_rows)]
        for row in (report.csv_header, *report.csv_rows):
            yield "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
    if report.discrepancies:
        yield "published-vs-recomputed discrepancies:\n"
        for row in report.discrepancies:
            rel = {True: "==", False: "!=", None: "vs"}[row["matches"]]
            note = "" if row["published_exact"] else "  (published value approximate)"
            yield f"  n={row['n']}: published {row['published']} {rel} recomputed {row['recomputed']}{note}\n"


def _emit(report: Report, fmt: str) -> None:
    """Write the report to stdout in batches of at most _BATCH chars; a longer chunk goes alone.

    The batching is not a copy of TextIOWrapper's buffer: under PYTHONUNBUFFERED=1
    (or ``python -u``) sys.stdout.buffer is a raw FileIO and write_through is on,
    so every write is a system call.  The 2,438 JSON chunks of
    ``bounds --a 1 --b 1 --kmax 9 --lmax 9`` then go out in 24 writes, not 2,438.
    """
    write = sys.stdout.write  # looked up now: tests and in-process runs swap stdout for a StringIO
    render = {"json": _render_json, "csv": _render_csv}.get(fmt, _render_table)
    batch, size = [], 0
    for chunk in render(report):
        if size + len(chunk) > _BATCH and batch:
            write("".join(batch))  # the join of one chunk is that chunk, not a copy
            batch, size = [], 0
        batch.append(chunk)
        size += len(chunk)
    write("".join(batch))


def _params_from_args(args) -> Params:
    """The Params of the parsed pairs --a, --b and --d0, once they meet the growth conditions."""
    check_params(args.a, args.b, args.d0)
    return Params(*map(_fraction, (args.a, args.b, args.d0)))


def _params_dict(params) -> dict:
    """The text of a, b and d0, given as Params or as a tuple of pairs."""
    return {name: pair_str(*as_pair(v)) for name, v in zip(("a", "b", "d0"), params)}


def _discrepancies_for(params: Params, cap: int) -> list:
    """The published d = 3 table's rows for the parameter set (1, 9, 1), under the index cap; else none."""
    if (params.a, params.b, params.d0) != (1, 9, 1):
        return []
    from . import nsmodel

    return [{**r._asdict(), "recomputed": frac_str(r.recomputed)} for r in nsmodel.published_3d_discrepancies(cap)]


def _rows_report(
    command: str, params: dict, fields: tuple, rows: list, key: str, results: dict, table_lines=(), discrepancies=()
):
    """A report with one row per line of the csv and one dict per row in results[key]."""
    results[key] = [dict(zip(fields, r)) for r in rows]
    return Report(command, params, results, list(fields), rows, table_lines, discrepancies)
