"""Independent checks of recgrow's JSON reports.

Nothing here imports recgrow.  Parameters are read back from the command
line, the sequence comes from a plain `Fraction` loop of the recursion
`D(n+1) = a + b*D(n)^2`, and the growth constant from the Aho-Sloane series

    ln C = ln(b*d0) + sum_{j >= 0} 2^-(j+1) * ln Q(j),   Q(j) = 1 + a/(b*D(j)^2)

(A. V. Aho and N. J. A. Sloane, "Some doubly exponential sequences",
Fibonacci Quarterly 11 (1973) 429-437), whose terms decay doubly
exponentially.  `check` returns a list of problems; an empty list means the
report passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath

_INTEGER = re.compile(r"0|[1-9][0-9]*")
_RATIONAL = re.compile(r"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_LEAF_DIGITS = 2048


def parse_int(text: str) -> int:
    """Exact value of a canonical digit string, in subquadratic time.

    `int(str)` is quadratic on CPython before 3.12; splitting the string in
    halves and joining them with one multiplication per level is not, so a
    check of a megabyte report stays cheap next to the run it checks.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not a canonical integer: {text[:40]!r}")
    return _parse_digits(text, {})


def _parse_digits(text: str, powers: dict) -> int:
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    k = len(text) // 2
    if k not in powers:
        powers[k] = 10**k
    return _parse_digits(text[:-k], powers) * powers[k] + _parse_digits(text[-k:], powers)


def parse_ratio(text: str) -> tuple[int, int]:
    """(p, q) of a nonnegative "p" or "p/q" string, as written (not reduced)."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a canonical rational: {text[:40]!r}")
    den = match.group(2)
    return parse_int(match.group(1)), 1 if den is None else parse_int(den)


def _canonical(text: str, value: Fraction) -> bool:
    """True iff `text` is exactly "p" or "p/q" for `value` in lowest terms."""
    return parse_ratio(text) == (value.numerator, value.denominator) and (
        value.denominator != 1 or "/" not in text
    )


def _le(x: tuple[int, int], y: tuple[int, int]) -> bool:
    # cross-multiplied, so huge operands are never reduced by a gcd
    return x[0] * y[1] <= y[0] * x[1]


def sequence(a: Fraction, b: Fraction, d0: Fraction, n: int) -> list[Fraction]:
    values = [d0]
    for _ in range(n):
        values.append(a + b * values[-1] * values[-1])
    return values


def growth_constant(a: Fraction, b: Fraction, d0: Fraction, dps: int):
    """C from the Aho-Sloane series, as an mpf good to about `dps` digits."""
    a, b, d0 = Fraction(a), Fraction(b), Fraction(d0)

    def mpf(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(dps + 10):
        eps = mpmath.mpf(10) ** -(dps + 5)
        ln_c = mpmath.log(mpf(b * d0))
        d, weight = d0, mpmath.mpf(1) / 2
        while True:
            term = weight * mpmath.log1p(mpf(a / (b * d * d)))
            ln_c += term
            if term < eps:  # later terms are smaller than its square
                return mpmath.exp(ln_c)
            d, weight = a + b * d * d, weight / 2


def _options(argv: list[str]) -> dict[str, str]:
    return {flag: value for flag, value in zip(argv[1::2], argv[2::2])}


def _params(opts: dict) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(opts["--a"]), Fraction(opts["--b"]), Fraction(opts.get("--d0", "1"))


def _check_params(doc: dict, a: Fraction, b: Fraction, d0: Fraction) -> list[str]:
    p = doc["params"]
    if (Fraction(p["a"]), Fraction(p["b"]), Fraction(p["d0"])) != (a, b, d0):
        return [f"params {p} differ from the command line"]
    return []


def check_eval(opts: dict, doc: dict) -> list[str]:
    a, b, d0 = _params(opts)
    expect = sequence(a, b, d0, int(opts["--n"]))
    got = doc["results"]["values"]
    problems = _check_params(doc, a, b, d0)
    if len(got) != len(expect):
        return problems + [f"{len(got)} values, expected {len(expect)}"]
    problems += [f"D({n}) wrong" for n, (text, v) in enumerate(zip(got, expect)) if not _canonical(text, v)]
    monotone = all(x <= y for x, y in zip(expect, expect[1:]))
    if doc["results"]["monotone"] is not monotone:
        problems.append(f"monotone should be {monotone}")
    return problems


def check_bounds(opts: dict, doc: dict) -> list[str]:
    a, b, d0 = _params(opts)
    kmax, lmax = int(opts["--kmax"]), int(opts["--lmax"])
    seq = sequence(a, b, d0, kmax + lmax)
    rows = doc["results"]["certificates"]
    problems = _check_params(doc, a, b, d0)
    pairs = [(k, l) for k in range(1, kmax + 1) for l in range(1, lmax + 1)]
    if [(r["k"], r["l"]) for r in rows] != pairs:
        return problems + ["certificate (k, l) pairs differ from the k-major grid"]
    for r in rows:
        k, l = r["k"], r["l"]
        actual = parse_ratio(r["actual"])
        if not _canonical(r["actual"], seq[k + l]):
            problems.append(f"actual at k={k}, l={l} is not D({k + l})")
        elif not (_le(parse_ratio(r["lower"]), actual) and _le(actual, parse_ratio(r["upper"]))):
            problems.append(f"lower <= actual <= upper fails at k={k}, l={l}")
        if r["holds"] is not True:
            problems.append(f"holds is not true at k={k}, l={l}")
    if doc["results"]["all_hold"] is not True:
        problems.append("all_hold is not true")
    return problems


def check_converge(opts: dict, doc: dict) -> list[str]:
    a, b, d0 = _params(opts)
    lmin, lmax = int(opts.get("--lmin", "1")), int(opts["--lmax"])
    rows = doc["results"]["rows"]
    problems = _check_params(doc, a, b, d0)
    if [r["l"] for r in rows] != list(range(lmin, lmax + 1)):
        return problems + ["rows do not cover lmin..lmax"]
    for r in rows:
        if not _le(parse_ratio(r["ratio_minus_1"]), parse_ratio(r["gap"])):
            problems.append(f"ratio - 1 exceeds the gap at l={r['l']}")
    return problems


def check_growth(opts: dict, doc: dict) -> list[str]:
    a, b, d0 = _params(opts)
    res = doc["results"]
    digits = res["digits"]
    problems = _check_params(doc, a, b, d0)
    grid = re.compile(r"[0-9]+\.[0-9]{%d}" % digits)
    if not (grid.fullmatch(res["c_lo"]) and grid.fullmatch(res["c_hi"])):
        return problems + [f"endpoints are not on the 10^-{digits} grid"]
    # 30 digits finer than the grid, far finer than the enclosure's width
    dps = digits + 30
    c = growth_constant(a, b, d0, dps)
    with mpmath.workdps(dps):
        if not mpmath.mpf(res["c_lo"]) <= c <= mpmath.mpf(res["c_hi"]):
            problems.append(f"C = {mpmath.nstr(c, 20)} lies outside [c_lo, c_hi]")
    return problems


CHECKS = {"eval": check_eval, "bounds": check_bounds, "converge": check_converge, "growth": check_growth}


def check(argv: list[str], stdout: bytes) -> list[str]:
    """Problems with one report; subcommands without an oracle pass here."""
    if argv[0] not in CHECKS:
        return []
    try:
        doc = json.loads(stdout)
        if doc["command"] != argv[0]:
            return [f"report is for {doc['command']!r}, not {argv[0]!r}"]
        return CHECKS[argv[0]](_options(argv), doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
