"""What the CLI reads beyond a plain command line: the argparse parser and the JSON input documents.

:mod:`recgrow.cli` reads a plain ``COMMAND --option value ...`` line straight from its option
table, and imports this module only for a line it declines: ``--help``, a usage error, or any
other form argparse accepts.  ``general`` and ``matrix`` import it for their input documents.
No other run compiles it, since no bytecode cache may be at hand.
"""

from __future__ import annotations

from .errors import InvalidParamsError, _UsageError


def build_parser(commands: dict, description: str):
    """The argparse parser of the option table ``commands`` (see ``recgrow.cli._COMMANDS``)."""
    import argparse
    import re

    class _ArgumentParser(argparse.ArgumentParser):
        # no option looks like a negative number, so -1/2 and -1e3 are values, not unknown options (argparse: -1, -.5)
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"-\.?\d")

        # argparse exits 2 on usage problems; this CLI reserves 2 for invalid parameters, so usage errors become 1
        def error(self, message):
            raise _UsageError(f"{self.prog}: error: {message}")

    parser = _ArgumentParser(prog="recgrow", description=description)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, help_text, options) in commands.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kw in options:
            p.add_argument(flag, **kw)
    return parser


def _read_document(path: str, kind: str, build):
    """build(doc) for the JSON object in the file at path; every failure to read it is a usage error."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise _UsageError(f"cannot read JSON document {path}: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError(f"JSON document {path} must contain an object")
    try:
        return build(doc)
    except InvalidParamsError:  # a claim value breaks a validity condition: exit 2, not a bad document
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad {kind} document: {exc}")
