import contextlib
import json
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recgrow import Params, evaluate
from recgrow.serialize import _LEAF_BITS, TwinText, decimal_str, frac_str, json_chunks, parse_rational

F = Fraction


def test_huge_values_serialize_exactly():
    table = evaluate(Params(1, 1), 15)  # ~6000 digits at the top, over the default str limit
    for v in table.values:
        assert parse_rational(frac_str(v)) == v


def test_frac_str_roundtrip():
    for x in (F(0), F(-3, 7), F(10) ** 5000 + 7, F(901, 900)):
        assert parse_rational(frac_str(x)) == x
    assert frac_str(F(8109, 8100)) == "901/900"  # canonical lowest terms


def test_decimal_str():
    assert decimal_str(F(3, 2), 1) == "1.5"
    assert decimal_str(F(15028368, 10 ** 7), 7) == "1.5028368"
    assert decimal_str(F(5), 0) == "5"
    assert decimal_str(F(-1, 100), 3) == "-0.010"
    with pytest.raises(ValueError):
        decimal_str(F(1, 3), 5)


@contextlib.contextmanager
def _unlimited_str():
    """Lift the interpreter's digit limit so str() can serve as the reference."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ints of leaf-1, leaf and leaf+1 bits, at the first split level and the
# next, then 10^k and 10^k - 1 for k from one leaf (~1200 digits) to 32 leaves
_EDGES = [
    x
    for bits in (_LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, 2 * _LEAF_BITS, 2 * _LEAF_BITS + 1)
    for x in (1 << (bits - 1), (1 << bits) - 1)
] + [x for k in (1204, 2408, 4816, 9632, 19264, 38528) for x in (10**k, 10**k - 1)]

_MAGNITUDES = st.one_of(
    st.just(0),
    st.sampled_from(_EDGES),
    st.builds(lambda w, seed: random.Random(seed).getrandbits(w), st.integers(1, 300_000), st.integers(0, 2**32)),
)


@settings(max_examples=60, deadline=None)
@given(magnitude=_MAGNITUDES, negative=st.booleans())
def test_frac_str_matches_str(magnitude, negative):
    n = -magnitude if negative else magnitude
    with _unlimited_str():
        expect = str(n)
    assert frac_str(n) == expect
    assert frac_str(F(n)) == expect


@settings(max_examples=40, deadline=None)
@given(magnitude=_MAGNITUDES, negative=st.booleans(), digits=st.sampled_from((0, 1, 30, 1199, 1200, 1201, 5000)))
def test_decimal_str_matches_str(magnitude, negative, digits):
    n = -magnitude if negative else magnitude
    with _unlimited_str():
        whole, frac = divmod(magnitude, 10**digits)
        expect = ("-" if negative and n else "") + (f"{whole}.{str(frac).zfill(digits)}" if digits else str(whole))
    x = F(n, 10**digits)
    assert decimal_str(x, digits) == expect
    assert parse_rational(expect) == x


@settings(max_examples=30, deadline=None)
@given(num=_MAGNITUDES, den=_MAGNITUDES.filter(bool), negative=st.booleans())
def test_parse_inverts_frac_str(num, den, negative):
    x = F(-num if negative else num, den)
    assert parse_rational(frac_str(x)) == x



@pytest.mark.parametrize(
    "text", ["7", "-3/7", " 2/4 ", "1.5", ".5", "1.", "+.5E+3", "1e-12", "1_000.000_1e1_0", "\u0661\u0662/3"]
)
def test_parse_accepts_fraction_grammar(text):
    assert parse_rational(text) == F(text)


@pytest.mark.parametrize("text", ["", ".", "1e", "1__0", "1._5", "1/_2", "1.5/2", "1 / 2", "x/y"])
def test_parse_rejects_what_fraction_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


_LONG_FORMS = """
import contextlib, io, json
from fractions import Fraction
from recgrow.cli import run
from recgrow.serialize import parse_rational

ones = "1" * 5000
r = (10 ** 5000 - 1) // 9  # the int whose 5000 digits are all 1
d0 = Fraction(10 ** 5000 + r, 10 ** 5000)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(["eval", "--a", "1", "--b", "1", "--d0", "1." + ones + "e0", "--n", "0", "--format", "json"])
try:
    parse_rational(ones + "/0")
    zero = "parsed"
except ZeroDivisionError:
    zero = "ZeroDivisionError"
print(
    code,
    parse_rational(json.loads(out.getvalue())["results"]["values"][0]) == d0,
    parse_rational("." + ones) == Fraction(r, 10 ** 5000),
    parse_rational("-1." + ones + "e0") == -d0,
    parse_rational(ones + "E-3") == Fraction(r, 1000),
    parse_rational(ones[:2500] + "_" + ones[2500:]) == r,
    zero,
)
"""


def test_long_decimal_forms_under_default_int_limit():
    # exponent, leading-dot and underscore forms parse at any length, as Fraction's grammar allows
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-c", _LONG_FORMS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True True True True True ZeroDivisionError\n"

_FIXED_LIMIT = """
import contextlib, io, json, sys
from fractions import Fraction
from recgrow import Params, evaluate
from recgrow.cli import run
from recgrow.serialize import frac_str, parse_rational

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(["eval", "--a", "1", "--b", "1", "--n", "16", "--format", "json"])
top = json.loads(out.getvalue())["results"]["values"][-1]  # ~11,600 digits
x = Fraction(10 ** 9999 + 7, 3 ** 20958)  # 10,000-digit numerator and denominator
print(code, parse_rational(top) == evaluate(Params(1, 1), 16)[16], parse_rational(frac_str(x)) == x)
print(sys.get_int_max_str_digits())
"""


def test_big_values_under_default_int_limit():
    # huge values render and parse without lifting the interpreter-wide limit
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-c", _FIXED_LIMIT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True True\n4300\n"


_TWINS = st.builds(
    lambda num, den: TwinText(Decimal(num), Decimal(den)),
    st.one_of(st.just(0), st.integers(-(10**400), 10**400)),
    st.one_of(st.just(1), st.integers(1, 10**400)),
)


# strings with quotes, backslashes, control characters, DEL and non-ASCII, among any others
_STRINGS = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7f \xe9\u20ac\U0001f600a~'), st.characters()))
_LEAVES = st.one_of(
    _STRINGS,
    st.integers(),
    st.integers(-(2**600), 2**600),
    st.booleans(),
    st.none(),
    _TWINS,
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_STRINGS, inner)),
    max_leaves=20,
)


def _as_str(doc):
    """The document with each TwinText as its string, for the standard library's encoder."""
    if type(doc) is TwinText:
        return str(doc)
    if isinstance(doc, dict):
        return {k: _as_str(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_str(v) for v in doc]
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=_DOCUMENTS)
def test_json_chunks_match_the_standard_encoder(doc):
    expect = json.dumps(_as_str(doc), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert "".join(json_chunks(doc)) == expect


def test_json_chunks_keep_empty_containers_and_twin_parts_apart():
    twin = TwinText(Decimal(-12), Decimal(5))
    assert "".join(json_chunks({"a": {}, "b": [], "c": ()})) == '{\n  "a": {},\n  "b": [],\n  "c": []\n}\n'
    assert list(json_chunks([twin, TwinText(Decimal(7), Decimal(1))])) == [
        "[\n  ", '"', "-12", "/", "5", '"', ",\n  ", '"', "7", '"', "\n]", "\n"
    ]


@pytest.mark.parametrize(
    "doc, name", [({"x": 1.5}, "float"), ([F(1, 2)], "Fraction"), ({1: "one"}, "int"), ({"a": [{(1,): 2}]}, "tuple")]
)
def test_json_chunks_refuse_other_types_and_keys(doc, name):
    with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
        "".join(json_chunks(doc))
