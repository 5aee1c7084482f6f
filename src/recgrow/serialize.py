"""Exact text serialization for arbitrarily large rationals.

Big values always travel as base-10 strings ("p/q" or plain digits), never as
native numbers: terms outgrow machine words immediately and JSON numbers
would silently lose digits.  parse(serialize(x)) == x exactly.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def ensure_big_int_str(digits: int = 100_000_000) -> None:
    """Lift the interpreter's int->str conversion limit to cover huge terms."""
    if sys.get_int_max_str_digits() < digits:
        sys.set_int_max_str_digits(digits)


def frac_str(x: Fraction) -> str:
    """Canonical exact rendering: "p" for integers, "p/q" otherwise."""
    ensure_big_int_str()
    return str(x)


def parse_rational(text: str) -> Fraction:
    """Exact inverse of :func:`frac_str`; also accepts decimal strings."""
    ensure_big_int_str()
    return Fraction(text.strip())


def decimal_str(x: Fraction, digits: int) -> str:
    """Exact fixed-point rendering of a value on the 10^-digits grid."""
    ensure_big_int_str()
    scaled = x * 10 ** digits
    if scaled.denominator != 1:
        raise ValueError(f"{x} is not on the 10^-{digits} grid")
    n = int(scaled)
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return sign + str(n)
    whole, frac = divmod(n, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, fixed separators, one trailing
    newline.  Identical inputs give identical bytes across runs."""
    return (json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n").encode("utf-8")
