from fractions import Fraction

import pytest

from recgrow import Params, evaluate
from recgrow.serialize import decimal_str, frac_str, parse_rational

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
