"""Command-line front end: parameter ingestion and report serialization.

This module holds the parser, the exit codes and the dispatch.  Each
subcommand's handler lives in its home module (``_HOMES``) and returns a
:class:`~recgrow.report.Report`, which is streamed to stdout in batches of at
most 64 KiB once every check has run.  Exit codes: 0 success, 1 usage error,
2 invalid parameters, 3 cap or tolerance failure, 4 certificate failure (a
fault in the library, not in the input), 141 stdout closed by its reader (as
by SIGPIPE).
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from fractions import Fraction

from .errors import CapExceededError, CertificateError, InvalidParamsError, ToleranceUnachievableError
from .recurrence import DEFAULT_CAP, DEFAULT_MAX_DIGITS, DEFAULT_ROOT_DIGITS, MATRIX_DEFAULT_CAP
from .report import _UsageError, _emit
from .serialize import parse_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_PARAMS = 2
EXIT_CAP_OR_TOLERANCE = 3
EXIT_CERTIFICATE = 4
EXIT_BROKEN_PIPE = 141

#: the home module of each subcommand's handler _cmd_<name>; run imports only the one it runs, so an
#: invocation compiles no other subcommand's handler
_HOMES = {
    "eval": "twins",
    "bounds": "twins",
    "converge": "twins",
    "benchmark": "twins",
    "growth": "growth",
    "general": "general",
    "matrix": "matrixrec",
    "ns": "nsmodel",
}


class _ArgumentParser(argparse.ArgumentParser):
    # no option looks like a negative number, so -1/2 and -1e3 are values, not unknown options (argparse: -1, -.5)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

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


def _handler(command: str):
    """The subcommand's handler, from its home module, imported now."""
    return getattr(importlib.import_module(f".{_HOMES[command]}", __package__), f"_cmd_{command}")


def run(argv) -> int:
    """Parse argv, execute, print the report; returns the process exit code.

    The error's type alone picks the exit code; any other exception is a fault and propagates.
    """
    try:
        args = build_parser().parse_args(list(argv))
        report = _handler(args.command)(args)
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
