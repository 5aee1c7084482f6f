"""Command-line front end: parameter ingestion and report serialization.

Every subcommand emits one report in the requested format (table, json, csv).
JSON reports share the top-level shape

    {schema_version, command, params, results, discrepancies}

with all big values as exact strings, and are byte-stable for a fixed
command line.  Exit codes: 0 success, 1 usage error, 2 invalid parameters,
3 cap or tolerance failure, 4 certificate failure (a fault in the library,
not in the input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from . import bounds as bounds_mod
from . import general as general_mod
from . import growth as growth_mod
from . import matrixrec
from . import nsmodel
from .errors import CapExceededError, CertificateError, InvalidParamsError, ToleranceUnachievableError
from .recurrence import DEFAULT_CAP, Params, SequenceTable, evaluate, is_monotone, validate_params
from .serialize import (
    EXACT,
    canonical_json_bytes,
    decimal_str,
    frac_str,
    parse_rational,
    to_decimal,
    twin_of,
    twin_reduce,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_PARAMS = 2
EXIT_CAP_OR_TOLERANCE = 3
EXIT_CERTIFICATE = 4


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


@dataclass
class Report:
    """One subcommand's output, renderable as table, json, or csv."""

    command: str
    params: dict
    results: dict
    csv_header: list
    csv_rows: list
    table_lines: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)


def _render_json(report: Report) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": report.command,
        "params": report.params,
        "results": report.results,
        "discrepancies": report.discrepancies,
    }
    return canonical_json_bytes(doc).decode("utf-8")


def _render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.csv_header)
    writer.writerows(report.csv_rows)
    return buf.getvalue()


def _render_table(report: Report) -> str:
    lines = [f"# {report.command}"]
    for key in sorted(report.params):
        value = report.params[key]
        lines.append(f"{key} = {value if isinstance(value, str) else json.dumps(value)}")
    lines.extend(report.table_lines)
    if report.csv_rows:
        cells = [[str(c) for c in row] for row in report.csv_rows]
        header = [str(h) for h in report.csv_header]
        widths = [
            min(28, max(len(header[i]), max(len(row[i]) for row in cells)))
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if report.discrepancies:
        lines.append("published-vs-recomputed discrepancies:")
        for row in report.discrepancies:
            rel = {True: "==", False: "!=", None: "vs"}[row["matches"]]
            lines.append(
                f"  n={row['n']}: published {row['published']} {rel} recomputed {row['recomputed']}"
                + ("" if row["published_exact"] else "  (published value approximate)")
            )
    return "\n".join(lines) + "\n"


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_render_json(report))
    elif fmt == "csv":
        sys.stdout.write(_render_csv(report))
    else:
        sys.stdout.write(_render_table(report))


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
# decimal twins: each printed big value is built a second time in the output
# radix, by the same recurrence steps and squarings as its int, so frac_str
# prints it in linear time (see recgrow.serialize)


def _orbit_twins(params: Params):
    """Twins of D(0), D(1), ... in lowest terms, one step of the recurrence at a time."""
    (an, ad), (bn, bd) = params.a.as_integer_ratio(), params.b.as_integer_ratio()
    # a + b*(p/q)^2 = (an*bd*q^2 + bn*ad*p^2) / (ad*bd*q^2), p and q coprime: a prime
    # of both divides ad*bd if it misses q, and bn*ad if it divides q
    u, v, w = map(to_decimal, (an * bd, bn * ad, ad * bd))
    p, q = twin_of(params.d0)
    while True:
        yield p, q
        q2 = EXACT.multiply(q, q)
        num = EXACT.fma(u, q2, EXACT.multiply(v, EXACT.multiply(p, p)))
        p, q = twin_reduce(num, EXACT.multiply(w, q2), ad * bd * bn)


def _orbit_head(params: Params, n: int) -> SequenceTable:
    """D(0..n) as ints, for the small bases b*D(l) and Q(l) of the bound twins."""
    values = [params.d0]
    for _ in range(n):
        values.append(params.a + params.b * values[-1] ** 2)
    return SequenceTable(params, tuple(values))


def _square(t: tuple) -> tuple:
    return tuple(EXACT.multiply(x, x) for x in t)


def _over(t: tuple, f: Fraction) -> tuple:
    """Twin of t / f for a small f > 0: a prime of both parts divides f's numerator or denominator."""
    fn, fd = twin_of(f)
    return twin_reduce(EXACT.multiply(t[0], fd), EXACT.multiply(t[1], fn), f.numerator * f.denominator)


def _ratio_twin(b: Fraction, d: Fraction, act: tuple, lo: tuple) -> tuple:
    """Twin of act / lo, reduced as bounds reduces D(k+l) / lower."""
    xn, yn = twin_reduce(act[0], lo[0], b.numerator * d.numerator)
    xd, yd = twin_reduce(act[1], lo[1], b.denominator * d.denominator)
    return EXACT.multiply(xn, yd), EXACT.multiply(xd, yn)


def _bound_twins(params: Params, k_max: int, l_max: int):
    """Twins of (lower, upper, actual, ratio) of each certificate, in certify's order.

    Each row k squares the powers P^(2^(k-1)) and R^(2^(k-1)) of the row before, which is then dropped.
    """
    b, head = params.b, _orbit_head(params, l_max)
    orbit = list(islice(_orbit_twins(params), k_max + l_max + 1))
    bq = {l: b * bounds_mod.q_factor(params, head, l) for l in range(1, l_max + 1)}
    powers = {l: (twin_of(b * head[l]), twin_of(head[l] * bq[l])) for l in bq}
    for k in range(1, k_max + 1):
        powers = {l: (_square(p), _square(r)) for l, (p, r) in powers.items()}
        for l, (p, r) in powers.items():
            lo = _over(p, b)
            yield lo, _over(r, bq[l]), orbit[k + l], _ratio_twin(b, head[l], orbit[k + l], lo)


def _profile_twins(params: Params, k: int, l_min: int, l_max: int):
    """Twins of (ratio - 1, Q(l)^(2^k - 1) - 1) of each profile row, l = l_min..l_max."""
    b, head = params.b, _orbit_head(params, l_max)
    for l, act in zip(range(l_min, l_max + 1), islice(_orbit_twins(params), k + l_min, None)):
        q = twin_of(bounds_mod.q_factor(params, head, l))
        p, qk = twin_of(b * head[l]), q
        for _ in range(k):
            p, qk = _square(p), _square(qk)
        rn, rd = _ratio_twin(b, head[l], act, _over(p, b))
        # Q(l) is reduced, so Q^(2^k) / Q divides part by part
        gn, gd = (EXACT.divide_int(x, y) for x, y in zip(qk, q))
        # x - 1 for a reduced x stays reduced
        yield (EXACT.subtract(rn, rd), rd), (EXACT.subtract(gn, gd), gd)


def _doubling_twins():
    """Twins of the benchmark 2^(2^(n-1)), n = 0, 1, ..., with the n = 0 value 1."""
    yield twin_of(1)
    t, one = twin_of(2)
    while True:
        yield t, one
        t = EXACT.multiply(t, t)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(args) -> Report:
    params = _params_from_args(args)
    table = evaluate(params, args.n, cap=args.cap)
    values = [frac_str(v, t) for v, t in zip(table.values, _orbit_twins(params))]
    monotone = is_monotone(table)
    return Report(
        command="eval",
        params=_params_dict(params),
        results={"n_max": table.n_max, "values": values, "monotone": monotone},
        csv_header=["n", "value"],
        csv_rows=[[n, v] for n, v in enumerate(values)],
        table_lines=[f"monotone = {monotone}"],
        discrepancies=_discrepancies_for(params),
    )


def _cmd_bounds(args) -> Report:
    params = _params_from_args(args)
    certs = bounds_mod.certify(params, args.kmax, args.lmax, cap=args.cap)
    cert_rows = [
        {
            "k": c.k,
            "l": c.l,
            "q_l": frac_str(c.q_l),
            "lower": frac_str(c.lower, lo),
            "upper": frac_str(c.upper, up),
            "actual": frac_str(c.actual, act),
            "ratio": frac_str(c.ratio, rat),
            "holds": c.holds,
        }
        for c, (lo, up, act, rat) in zip(certs, _bound_twins(params, args.kmax, args.lmax))
    ]
    all_hold = all(c.holds for c in certs)
    return Report(
        command="bounds",
        params=_params_dict(params),
        results={
            "k_max": args.kmax,
            "l_max": args.lmax,
            "all_hold": all_hold,
            "certificates": cert_rows,
        },
        csv_header=["k", "l", "q_l", "lower", "upper", "actual", "ratio", "holds"],
        csv_rows=[[r["k"], r["l"], r["q_l"], r["lower"], r["upper"], r["actual"], r["ratio"], r["holds"]] for r in cert_rows],
        table_lines=[f"all_hold = {all_hold}"],
    )


def _cmd_converge(args) -> Report:
    params = _params_from_args(args)
    if args.lmin > args.lmax:
        raise _UsageError("converge: --lmin must not exceed --lmax")
    profile = bounds_mod.convergence_profile(params, args.k, range(args.lmin, args.lmax + 1), cap=args.cap)
    rows = [
        {"l": l, "ratio_minus_1": frac_str(r, rt), "gap": frac_str(g, gt)}
        for (l, r, g), (rt, gt) in zip(profile.rows, _profile_twins(params, args.k, args.lmin, args.lmax))
    ]
    return Report(
        command="converge",
        params=_params_dict(params),
        results={"k": profile.k, "rows": rows},
        csv_header=["l", "ratio_minus_1", "gap"],
        csv_rows=[[r["l"], r["ratio_minus_1"], r["gap"]] for r in rows],
    )


def _cmd_growth(args) -> Report:
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
    params = _params_from_args(args)
    rows = growth_mod.compare_to_benchmark(params, args.n, cap=args.cap)
    row_dicts = [
        {
            "n": r.n,
            "value": frac_str(r.value, value),
            "benchmark": frac_str(r.benchmark, mark),
            "dominates": r.dominates,
        }
        for r, value, mark in zip(rows, _orbit_twins(params), _doubling_twins())
    ]
    all_dominate = all(r.dominates for r in rows)
    return Report(
        command="benchmark",
        params=_params_dict(params),
        results={"rows": row_dicts, "all_dominate": all_dominate},
        csv_header=["n", "value", "benchmark", "dominates"],
        csv_rows=[[r["n"], r["value"], r["benchmark"], r["dominates"]] for r in row_dicts],
        table_lines=[f"all_dominate = {all_dominate}"],
    )


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read JSON document {path}: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError(f"JSON document {path} must contain an object")
    return doc


def _family_from_doc(doc: dict) -> tuple[general_mod.PowerNonlinearity, Fraction]:
    try:
        alpha = doc["alpha"]
        beta = doc["beta"]
        family = general_mod.PowerFamily(
            power=int(doc.get("power", 2)),
            alpha=tuple(parse_rational(c) for c in alpha) if isinstance(alpha, list) else parse_rational(alpha),
            beta=tuple(parse_rational(c) for c in beta) if isinstance(beta, list) else parse_rational(beta),
        )
        pn = general_mod.PowerNonlinearity(
            c1=parse_rational(doc["c1"]),
            c2=parse_rational(doc["c2"]),
            delta=parse_rational(doc["delta"]),
            family=family,
        )
        d0 = parse_rational(doc.get("d0", "1"))
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad nonlinearity document: {exc}")
    return pn, d0


def _coeff_json(coeffs):
    if isinstance(coeffs, tuple):
        return [frac_str(c) for c in coeffs]
    return frac_str(coeffs)


def _cmd_general(args) -> Report:
    pn, d0 = _family_from_doc(_load_json_file(args.file))
    if d0 < 1:
        raise ValueError(f"seed must be >= 1, got {frac_str(d0)}")
    if args.n > args.cap:
        raise CapExceededError(f"n={args.n} exceeds cap={args.cap}")
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
        {
            "n": n,
            "lower": frac_str(pair.lower[n]),
            "value": frac_str(orbit[n]),
            "upper": frac_str(pair.upper[n]),
            "contained": pair.lower[n] <= orbit[n] <= pair.upper[n],
        }
        for n in range(args.n + 1)
    ]
    all_contained = all(r["contained"] for r in rows)
    return Report(
        command="general",
        params=params,
        results={
            "sandwich_ok": True,
            "exact": pair.exact,
            "rows": rows,
            "all_contained": all_contained,
        },
        csv_header=["n", "lower", "value", "upper", "contained"],
        csv_rows=[[r["n"], r["lower"], r["value"], r["upper"], r["contained"]] for r in rows],
        table_lines=[
            "sandwich_ok = True",
            f"exact = {pair.exact}",
            f"all_contained = {all_contained}",
        ],
    )


def _matrix_from_doc(doc: dict) -> matrixrec.MatrixParams:
    try:
        return matrixrec.MatrixParams(
            a=[[parse_rational(x) for x in row] for row in doc["a"]],
            b=[[parse_rational(x) for x in row] for row in doc["b"]],
            d0=[[parse_rational(x) for x in row] for row in doc["d0"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad matrix document: {exc}")


def _matrix_strings(mat: matrixrec.Matrix) -> list:
    return [[frac_str(x) for x in row] for row in mat]


def _cmd_matrix(args) -> Report:
    mp = _matrix_from_doc(_load_json_file(args.file))
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
    model = nsmodel.NsModel(d=args.d, iterations=args.n, bytes_per_term=args.bytes_per_term)
    projection = nsmodel.cost_projection(model, budget=args.budget, cap=args.cap)
    rows = [
        {"n": r.n, "terms": frac_str(r.terms), "projected_bytes": frac_str(r.projected_bytes)}
        for r in projection.rows
    ]
    budget = None if projection.budget is None else frac_str(projection.budget)
    return Report(
        command="ns",
        params={"d": model.d, "iterations": model.iterations, "bytes_per_term": model.bytes_per_term},
        results={
            "budget": budget,
            "first_over_budget": projection.first_over_budget,
            "rows": rows,
        },
        csv_header=["n", "terms", "projected_bytes"],
        csv_rows=[[r["n"], r["terms"], r["projected_bytes"]] for r in rows],
        table_lines=(
            []
            if budget is None
            else [f"budget = {budget}", f"first_over_budget = {projection.first_over_budget}"]
        ),
        discrepancies=_discrepancies_for(Params(1, args.d * args.d, 1)),
    )


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
    p.add_argument("--max-digits", type=_pos_int, default=growth_mod.DEFAULT_MAX_DIGITS)
    p.add_argument("--loglog-n", type=_pos_int, default=None, help="also report log2(ln(b*D(n)))/n here")

    p = sub.add_parser("benchmark", parents=[ab_parent, fmt_parent], help="compare against 2^(2^(n-1))")
    p.add_argument("--n", type=_nonneg_int, required=True)

    p = sub.add_parser("general", parents=[fmt_parent], help="power-nonlinearity envelope from a JSON document")
    p.add_argument("--file", required=True, help="nonlinearity document (c1, c2, delta, power, alpha, beta, d0)")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--digits", type=_pos_int, default=general_mod.DEFAULT_ROOT_DIGITS)

    p = sub.add_parser(
        "matrix", parents=[_fmt_parent(matrixrec.MATRIX_DEFAULT_CAP)], help="matrix recursion from a JSON document"
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
    """Parse argv, execute, print the report; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        report = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidParamsError as exc:
        print(f"recgrow: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except ValueError as exc:
        print(f"recgrow: invalid parameters: {exc}", file=sys.stderr)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
