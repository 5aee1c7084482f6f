"""Command-line front end: parameter ingestion and report serialization.

This module holds the option table ``_COMMANDS`` and the dispatch.  A plain
``COMMAND --option value ...`` line is read from the table directly; any other line (``--help``,
a usage error) goes to the ``argparse`` parser that :func:`recgrow.inputs.build_parser` builds
from the same table, and only such a line imports that module and ``argparse``.  An exact
rational option is read as a lowest-terms int pair ``(num, den)``, from which the handlers that
want ``Fraction``s build them.  Each handler lives in the home module the table names and returns
a :class:`~recgrow.report.Report`, which is streamed to stdout in batches of at most 64 KiB once
every check has run.  Exit codes: 0 success, 1 usage error, 2 invalid parameters, 3 cap or
tolerance failure, 4 certificate failure (a fault in the library, not in the input), 141 stdout
closed by its reader (as by SIGPIPE).
"""

from __future__ import annotations

import importlib
import sys
from types import SimpleNamespace

from .errors import RecgrowError
from .recurrence import DEFAULT_CAP, DEFAULT_MAX_DIGITS, MATRIX_DEFAULT_CAP
from .report import _emit
from .serialize import parse_pair

EXIT_OK = 0
EXIT_BROKEN_PIPE = 141

#: the first line of the module docstring, which ``python -OO`` strips: argparse's description
_DESCRIPTION = "Command-line front end: parameter ingestion and report serialization."


def _bad_value(message: str) -> Exception:
    # the error argparse prints as `argument --x: <message>`; only a rejected value imports argparse
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _rational(text: str) -> tuple[int, int]:
    """The lowest-terms pair (num, den) of an exact rational option."""
    try:
        return parse_pair(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_value(f"not an exact rational: {text!r} ({exc})")


def _int_at_least(low: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _bad_value(f"not an integer: {text!r}") from None
        if value < low:
            raise _bad_value(f"must be >= {low}, got {text}")
        return value

    return convert


_nonneg_int, _pos_int = _int_at_least(0), _int_at_least(1)


# the option table, read by _read and by inputs.build_parser: an option is (flag, its add_argument keywords),
# and its dest is the flag's, as argparse derives it
_AB = (
    ("--a", dict(type=_rational, required=True, help="additive constant, exact rational")),
    ("--b", dict(type=_rational, required=True, help="quadratic coefficient, exact rational")),
    ("--d0", dict(type=_rational, default=(1, 1), help="seed value, default 1")),
)


def _fmt(cap: int) -> tuple:
    return (
        ("--format", dict(choices=("table", "json", "csv"), default="table")),
        ("--cap", dict(type=_nonneg_int, default=cap, help=f"evaluation index cap, default {cap}")),
    )


_AB_FMT = _AB + _fmt(DEFAULT_CAP)
_N = ("--n", dict(type=_nonneg_int, required=True))
_POSITIVE = dict(type=_pos_int, required=True)

#: subcommand: (home module of its handler _cmd_<name>, help, options in help order); run imports only
#: the home module of the one it runs, so an invocation compiles no other subcommand's handler
_COMMANDS = {
    "eval": ("twins", "exact sequence values", (
        *_AB_FMT, ("--n", dict(type=_nonneg_int, required=True, help="largest index to compute")),
    )),
    "bounds": ("twins", "bilateral bound certificates", (*_AB_FMT, ("--kmax", _POSITIVE), ("--lmax", _POSITIVE))),
    "converge": ("twins", "ratio-vs-gap convergence profile", (
        *_AB_FMT, ("--k", _POSITIVE), ("--lmin", dict(type=_pos_int, default=1)), ("--lmax", _POSITIVE),
    )),
    "growth": ("growth", "certified growth-constant enclosure", (
        *_AB_FMT,
        ("--l", dict(type=_pos_int, required=True, help="witness index")),
        ("--rtol", dict(type=_rational, default=(1, 10**12), help="relative tolerance, e.g. 1e-12")),
        ("--max-digits", dict(type=_pos_int, default=DEFAULT_MAX_DIGITS)),
        ("--loglog-n", dict(type=_pos_int, default=None, help="also report log2(ln(b*D(n)))/n here")),
    )),
    "benchmark": ("twins", "compare against 2^(2^(n-1))", (*_AB_FMT, _N)),
    "general": ("general", "power-nonlinearity envelope from a JSON document", (
        *_fmt(DEFAULT_CAP),
        ("--file", dict(required=True, help="nonlinearity document (c1, c2, delta, power, alpha, beta, d0)")),
        _N,
    )),
    "matrix": ("matrixrec", "matrix recursion from a JSON document", (
        *_fmt(MATRIX_DEFAULT_CAP),
        ("--file", dict(required=True, help="matrix document (a, b, d0 as row-major rational strings)")),
        _N,
    )),
    "ns": ("nsmodel", "iteration term counts and cost projection", (
        *_fmt(DEFAULT_CAP),
        ("--d", dict(type=_pos_int, required=True, help="spatial dimension")),
        ("--n", dict(type=_pos_int, required=True, help="iteration depth")),
        ("--bytes-per-term", dict(type=_pos_int, default=16)),
        ("--budget", dict(type=_pos_int, default=None, help="memory budget in bytes")),
    )),
}


def _read(argv: list) -> SimpleNamespace | None:
    """The namespace argparse would build, or None: argv must be COMMAND then --option value pairs, each option
    a full name from the table given once, no value starting with "-", each converting, every required one given."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    pending = dict(_COMMANDS[argv[0]][2])
    args = {"command": argv[0]}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kw = pending.pop(flag, None)  # popped, so a repeated option is unknown
        if kw is None or text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except Exception:  # argparse runs the converter again, and reports or raises as it always has
            return None
        if value not in kw.get("choices", (value,)):
            return None
        args[flag[2:].replace("-", "_")] = value
    if any(kw.get("required") for kw in pending.values()):
        return None
    args.update((flag[2:].replace("-", "_"), kw.get("default")) for flag, kw in pending.items())
    return SimpleNamespace(**args)


def _handler(command: str):
    """The subcommand's handler, from its home module, imported now."""
    return getattr(importlib.import_module(f".{_COMMANDS[command][0]}", __package__), f"_cmd_{command}")


def run(argv) -> int:
    """Parse argv, execute, print the report; returns the process exit code.

    The error's class alone picks the exit code; any other exception is a fault and propagates.
    """
    argv = list(argv)
    try:
        args = _read(argv)
        if args is None:
            from .inputs import build_parser

            args = build_parser(_COMMANDS, _DESCRIPTION).parse_args(argv)
        report = _handler(args.command)(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except RecgrowError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
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
