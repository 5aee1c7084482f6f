"""Command-line front end: parameter ingestion and report serialization.

Every subcommand emits one report in the requested format (table, json, csv).
JSON reports share the top-level shape

    {schema_version, command, params, results, discrepancies}

with all big values as exact strings, and are byte-stable for a fixed
command line.  Every check runs before the report is streamed to stdout in
batches of at most 64 KiB.  Exit codes: 0 success, 1 usage error, 2 invalid
parameters, 3 cap or tolerance failure, 4 certificate failure (a fault in the
library, not in the input), 141 stdout closed by its reader (as by SIGPIPE).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

# the subcommand modules (twins, growth, general, matrixrec, nsmodel) are imported
# by the handlers that run them, so each invocation loads only what it uses
from .errors import CapExceededError, CertificateError, InvalidParamsError, ToleranceUnachievableError
from .recurrence import (
    DEFAULT_CAP, DEFAULT_MAX_DIGITS, DEFAULT_ROOT_DIGITS, MATRIX_DEFAULT_CAP, Params, check_benchmark_regime,
    check_cap, evaluate, validate_params,
)
from .serialize import decimal_str, frac_str, json_chunks, parse_rational

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_PARAMS = 2
EXIT_CAP_OR_TOLERANCE = 3
EXIT_CERTIFICATE = 4
EXIT_BROKEN_PIPE = 141

#: the most chars one write to stdout carries, unless it is one longer chunk of the report
_BATCH = 1 << 16


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; this CLI reserves 2
    # for invalid mathematical parameters, so usage errors must become 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


class Report:
    """One subcommand's output, renderable as table, json, or csv."""

    __slots__ = ("command", "params", "results", "csv_header", "csv_rows", "table_lines", "discrepancies")

    def __init__(self, command, params, results, csv_header, csv_rows, table_lines=(), discrepancies=()):
        self.command, self.params, self.results = command, params, results
        self.csv_header, self.csv_rows = csv_header, csv_rows
        self.table_lines, self.discrepancies = list(table_lines), list(discrepancies)

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


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
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in (report.csv_header, *report.csv_rows):
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _render_table(report: Report):
    yield f"# {report.command}\n"
    for key in sorted(report.params):
        value = report.params[key]
        yield f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
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
    """Write the report to stdout in batches of at most _BATCH chars; a longer chunk goes alone."""
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
    report = validate_params(args.a, args.b, args.d0)
    if not report.ok:
        raise InvalidParamsError(report)
    return Params(a=args.a, b=args.b, d0=args.d0)


def _params_dict(params: Params) -> dict:
    return {"a": frac_str(params.a), "b": frac_str(params.b), "d0": frac_str(params.d0)}


def _discrepancies_for(params: Params) -> list:
    if (params.a, params.b, params.d0) != (Fraction(1), Fraction(9), Fraction(1)):
        return []
    from . import nsmodel

    return [
        {
            "n": row.n,
            "published": row.published,
            "published_exact": row.published_exact,
            "recomputed": frac_str(row.recomputed),
            "matches": row.matches,
        }
        for row in nsmodel.published_3d_discrepancies()
    ]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(args) -> Report:
    from . import twins

    params = _params_from_args(args)
    values, monotone = twins.eval_values(params, args.n, args.cap)
    return Report(
        command="eval",
        params=_params_dict(params),
        results={"n_max": args.n, "values": values, "monotone": monotone},
        csv_header=["n", "value"],
        csv_rows=[[n, v] for n, v in enumerate(values)],
        table_lines=[f"monotone = {monotone}"],
        discrepancies=_discrepancies_for(params),
    )


def _rows_report(
    command: str, params: dict, fields: tuple, rows: list, key: str, results: dict, table_lines=(), discrepancies=()
):
    """A report with one row per line of the csv and one dict per row in results[key]."""
    results[key] = [dict(zip(fields, r)) for r in rows]
    return Report(command, params, results, list(fields), rows, table_lines, discrepancies)


def _cmd_bounds(args) -> Report:
    from . import twins

    params = _params_from_args(args)
    rows = [[k, l, frac_str(q), *rest] for k, l, q, *rest in twins.bound_rows(params, args.kmax, args.lmax, args.cap)]
    all_hold = all(r[-1] for r in rows)
    fields = ("k", "l", "q_l", "lower", "upper", "actual", "ratio", "holds")
    results, lines = {"k_max": args.kmax, "l_max": args.lmax, "all_hold": all_hold}, [f"all_hold = {all_hold}"]
    return _rows_report("bounds", _params_dict(params), fields, rows, "certificates", results, lines)


def _cmd_converge(args) -> Report:
    from . import twins

    params = _params_from_args(args)
    if args.lmin > args.lmax:
        raise _UsageError("converge: --lmin must not exceed --lmax")
    rows = [list(r) for r in twins.profile_rows(params, args.k, args.lmin, args.lmax, args.cap)]
    return _rows_report("converge", _params_dict(params), ("l", "ratio_minus_1", "gap"), rows, "rows", {"k": args.k})


def _cmd_growth(args) -> Report:
    from . import growth as growth_mod

    params = _params_from_args(args)
    enc = growth_mod.growth_enclosure(params, args.l, args.rtol, cap=args.cap, max_digits=args.max_digits)
    results = {
        "l": enc.l,
        "rtol": frac_str(args.rtol),
        "digits": enc.digits,
        "c_lo": decimal_str(enc.c_lo, enc.digits),
        "c_hi": decimal_str(enc.c_hi, enc.digits),
        "width": decimal_str(enc.width, enc.digits),
    }
    if args.loglog_n is not None:
        table = evaluate(params, args.loglog_n, cap=args.cap)
        index = growth_mod.log_log_index(table, args.loglog_n, args.rtol)
        results["log_log_index"] = {"n": args.loglog_n, "value": frac_str(index)}
    return Report(
        command="growth",
        params=_params_dict(params),
        results=results,
        csv_header=["l", "digits", "c_lo", "c_hi", "width"],
        csv_rows=[[enc.l, enc.digits, results["c_lo"], results["c_hi"], results["width"]]],
        table_lines=[f"rtol = {results['rtol']}"]
        + (
            [f"log_log_index(n={args.loglog_n}) = {results['log_log_index']['value']}"]
            if args.loglog_n is not None
            else []
        ),
    )


def _cmd_benchmark(args) -> Report:
    from . import twins

    params = _params_from_args(args)
    check_benchmark_regime(params)
    rows = [list(r) for r in twins.benchmark_rows(params, args.n, args.cap)]
    all_dominate = all(r[-1] for r in rows)
    fields, results = ("n", "value", "benchmark", "dominates"), {"all_dominate": all_dominate}
    lines = [f"all_dominate = {all_dominate}"]
    return _rows_report("benchmark", _params_dict(params), fields, rows, "rows", results, lines)


def _read_document(path: str, kind: str, build):
    """build(doc) for the JSON object in the file at path; every failure to read it is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read JSON document {path}: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError(f"JSON document {path} must contain an object")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad {kind} document: {exc}")


def _family_from_doc(doc: dict, n: int) -> tuple:
    """(PowerNonlinearity, d0) of a nonlinearity document whose coefficient arrays cover steps 0..n-1."""
    from . import general as general_mod

    power = doc.get("power", 2)
    if type(power) not in (int, str):  # int() would read 2.7 as 2 and true as 1
        raise TypeError(f"power must be an integer, got {type(power).__name__}")
    coeffs = {}
    for name in ("alpha", "beta"):
        c = doc[name]
        if isinstance(c, list) and len(c) < n:
            raise ValueError(f"{name} has {len(c)} entries, fewer than --n {n}")
        coeffs[name] = tuple(map(parse_rational, c)) if isinstance(c, list) else parse_rational(c)
    family = general_mod.PowerFamily(power=int(power), **coeffs)
    c1, c2, delta = (parse_rational(doc[name]) for name in ("c1", "c2", "delta"))
    return general_mod.PowerNonlinearity(c1, c2, delta, family), parse_rational(doc.get("d0", "1"))


def _coeff_json(coeffs):
    if isinstance(coeffs, tuple):
        return [frac_str(c) for c in coeffs]
    return frac_str(coeffs)


def _cmd_general(args) -> Report:
    from . import general as general_mod

    pn, d0 = _read_document(args.file, "nonlinearity", lambda doc: _family_from_doc(doc, args.n))
    if d0 < 1:
        raise InvalidParamsError(f"seed must be >= 1, got {frac_str(d0)}")
    check_cap(args.n, args.cap)
    orbit = general_mod.iterate_family(pn.family, d0, args.n)
    samples = sorted(set(orbit) | {Fraction(1)})
    sandwich = general_mod.verify_sandwich(pn, samples, range(args.n))
    params = {
        "c1": frac_str(pn.c1),
        "c2": frac_str(pn.c2),
        "delta": frac_str(pn.delta),
        "power": pn.family.power,
        "alpha": _coeff_json(pn.family.alpha),
        "beta": _coeff_json(pn.family.beta),
        "d0": frac_str(d0),
    }
    if not sandwich.ok:
        raise InvalidParamsError(sandwich)
    pair = general_mod.envelope(pn, d0, args.n, root_digits=args.digits)
    rows = [
        [n, frac_str(lo), frac_str(value), frac_str(up), lo <= value <= up]
        for n, (lo, value, up) in enumerate(zip(pair.lower, orbit, pair.upper))
    ]
    all_contained = all(r[-1] for r in rows)
    fields = ("n", "lower", "value", "upper", "contained")
    results = {"sandwich_ok": True, "exact": pair.exact, "all_contained": all_contained}
    lines = ["sandwich_ok = True", f"exact = {pair.exact}", f"all_contained = {all_contained}"]
    return _rows_report("general", params, fields, rows, "rows", results, lines)


def _matrix_from_doc(doc: dict):
    from . import matrixrec

    return matrixrec.MatrixParams(
        a=[[parse_rational(x) for x in row] for row in doc["a"]],
        b=[[parse_rational(x) for x in row] for row in doc["b"]],
        d0=[[parse_rational(x) for x in row] for row in doc["d0"]],
    )


def _matrix_strings(mat: tuple) -> list:
    return [[frac_str(x) for x in row] for row in mat]


def _cmd_matrix(args) -> Report:
    from . import matrixrec

    mp = _read_document(args.file, "matrix", _matrix_from_doc)
    seq = matrixrec.evaluate_matrix(mp, args.n, cap=args.cap)
    envelope = matrixrec.scalar_envelope(mp, args.n, cap=args.cap)
    norms = [matrixrec.max_row_sum(m) for m in seq]
    dominated = all(norms[n] <= envelope[n] for n in range(args.n + 1))
    rows = [
        {
            "n": n,
            "norm": frac_str(norms[n]),
            "envelope": frac_str(envelope[n]),
            "matrix": _matrix_strings(seq[n]),
        }
        for n in range(args.n + 1)
    ]
    return Report(
        command="matrix",
        params={
            "dim": mp.dim,
            "a": _matrix_strings(mp.a),
            "b": _matrix_strings(mp.b),
            "d0": _matrix_strings(mp.d0),
        },
        results={
            "n_max": args.n,
            "rows": rows,
            "norm_dominated": dominated,
        },
        csv_header=["n", "norm", "envelope", "matrix"],
        csv_rows=[
            [r["n"], r["norm"], r["envelope"], ";".join(" ".join(row) for row in r["matrix"])]
            for r in rows
        ],
        table_lines=[f"norm_dominated = {dominated}"],
    )


def _cmd_ns(args) -> Report:
    from . import nsmodel

    model = nsmodel.NsModel(d=args.d, iterations=args.n, bytes_per_term=args.bytes_per_term)
    projection = nsmodel.cost_projection(model, budget=args.budget, cap=args.cap)
    rows = [[r.n, frac_str(r.terms), frac_str(r.projected_bytes)] for r in projection.rows]
    budget = None if projection.budget is None else frac_str(projection.budget)
    params = {"d": model.d, "iterations": model.iterations, "bytes_per_term": model.bytes_per_term}
    results = {"budget": budget, "first_over_budget": projection.first_over_budget}
    lines = [] if budget is None else [f"budget = {budget}", f"first_over_budget = {projection.first_over_budget}"]
    fields, discrepancies = ("n", "terms", "projected_bytes"), _discrepancies_for(Params(1, args.d * args.d, 1))
    return _rows_report("ns", params, fields, rows, "rows", results, lines, discrepancies)


# ---------------------------------------------------------------------------
# parser assembly


def _fmt_parent(cap: int) -> argparse.ArgumentParser:
    # one parent per cap default: subparsers share their parents' action
    # objects, so set_defaults on one subcommand would change them all
    parent = _ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parent.add_argument("--cap", type=_nonneg_int, default=cap, help=f"evaluation index cap, default {cap}")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="recgrow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    fmt_parent = _fmt_parent(DEFAULT_CAP)

    ab_parent = _ArgumentParser(add_help=False)
    ab_parent.add_argument("--a", type=_rational, required=True, help="additive constant, exact rational")
    ab_parent.add_argument("--b", type=_rational, required=True, help="quadratic coefficient, exact rational")
    ab_parent.add_argument("--d0", type=_rational, default=Fraction(1), help="seed value, default 1")

    p = sub.add_parser("eval", parents=[ab_parent, fmt_parent], help="exact sequence values")
    p.add_argument("--n", type=_nonneg_int, required=True, help="largest index to compute")

    p = sub.add_parser("bounds", parents=[ab_parent, fmt_parent], help="bilateral bound certificates")
    p.add_argument("--kmax", type=_pos_int, required=True)
    p.add_argument("--lmax", type=_pos_int, required=True)

    p = sub.add_parser("converge", parents=[ab_parent, fmt_parent], help="ratio-vs-gap convergence profile")
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--lmin", type=_pos_int, default=1)
    p.add_argument("--lmax", type=_pos_int, required=True)

    p = sub.add_parser("growth", parents=[ab_parent, fmt_parent], help="certified growth-constant enclosure")
    p.add_argument("--l", type=_pos_int, required=True, help="witness index")
    p.add_argument("--rtol", type=_rational, default=Fraction(1, 10**12), help="relative tolerance, e.g. 1e-12")
    p.add_argument("--max-digits", type=_pos_int, default=DEFAULT_MAX_DIGITS)
    p.add_argument("--loglog-n", type=_pos_int, default=None, help="also report log2(ln(b*D(n)))/n here")

    p = sub.add_parser("benchmark", parents=[ab_parent, fmt_parent], help="compare against 2^(2^(n-1))")
    p.add_argument("--n", type=_nonneg_int, required=True)

    p = sub.add_parser("general", parents=[fmt_parent], help="power-nonlinearity envelope from a JSON document")
    p.add_argument("--file", required=True, help="nonlinearity document (c1, c2, delta, power, alpha, beta, d0)")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--digits", type=_pos_int, default=DEFAULT_ROOT_DIGITS)

    p = sub.add_parser(
        "matrix", parents=[_fmt_parent(MATRIX_DEFAULT_CAP)], help="matrix recursion from a JSON document"
    )
    p.add_argument("--file", required=True, help="matrix document (a, b, d0 as row-major rational strings)")
    p.add_argument("--n", type=_nonneg_int, required=True)

    p = sub.add_parser("ns", parents=[fmt_parent], help="iteration term counts and cost projection")
    p.add_argument("--d", type=_pos_int, required=True, help="spatial dimension")
    p.add_argument("--n", type=_pos_int, required=True, help="iteration depth")
    p.add_argument("--bytes-per-term", type=_pos_int, default=16)
    p.add_argument("--budget", type=_pos_int, default=None, help="memory budget in bytes")

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "converge": _cmd_converge,
    "growth": _cmd_growth,
    "benchmark": _cmd_benchmark,
    "general": _cmd_general,
    "matrix": _cmd_matrix,
    "ns": _cmd_ns,
}


def run(argv) -> int:
    """Parse argv, execute, print the report; returns the process exit code.

    The error's type alone picks the exit code; any other exception is a fault and propagates.
    """
    try:
        args = build_parser().parse_args(list(argv))
        report = _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidParamsError as exc:
        print(f"recgrow: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except (CapExceededError, ToleranceUnachievableError) as exc:
        print(f"recgrow: {exc}", file=sys.stderr)
        return EXIT_CAP_OR_TOLERANCE
    except CertificateError as exc:
        print(f"recgrow: certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    _emit(report, args.format)
    return EXIT_OK


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: end quietly, and keep the flush at exit from raising again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
