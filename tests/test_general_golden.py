"""Goldens for `general` with a non-integer delta, where the library's envelope
takes certified rational powers on the 10^-digits grid.

The closed-form brackets of `closed_form_lower` are pinned from the
implementation that took every root of order v != 2^l as an integer Newton
root of the exactly scaled radicand x^u * 10^(digits*v).  The command lines
below printed pinned reports from the same implementation, for the README's
family with delta = 1/2 or 3/5 and C2 = 10^50, while the command checked the
sandwich only at the orbit values.  For z > 10^100, z^2 + 1 > 10^50 * z^(3/2),
so the claim is false for z >= 1 and each line now exits 2, as does the same
family at --n 0, where no step is taken but no power 2 meets 1 + delta.
"""

import json
from fractions import Fraction

import pytest

from recgrow import PowerFamily, PowerNonlinearity, closed_form_lower
from recgrow.cli import run

F = Fraction

REFUSED = [
    ("1/2", "--n 6 --format json"), ("1/2", "--n 6 --format csv"), ("3/5", "--n 3 --format json"), ("1/2", "--n 0"),
]


def _family_doc(delta: str) -> dict:
    return {"c1": "1", "c2": str(10 ** 50), "delta": delta, "power": 2, "alpha": "1", "beta": "1", "d0": "2"}


@pytest.mark.parametrize("delta, args", REFUSED)
def test_general_refuses_a_non_integer_delta(delta, args, tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(_family_doc(delta)))
    assert run(["general", "--file", str(path), *args.split()]) == 2
    assert capsys.readouterr() == ("", "recgrow: invalid parameters, failed condition(s): power = 1+delta\n")


#: closed_form_lower(C1 = 2, delta = 3/5, l_value = 2, k) at the default 40 root digits.
CLOSED_FORM_3_5 = {
    0: F(2),
    1: (
        F(242514650641663693175561568209031238189, 40000000000000000000000000000000000000),
        F(15157165665103980823472598013064452386813, 2500000000000000000000000000000000000000),
    ),
    2: (
        F(1787659420915551946577585016323971602869104999167328047684611921514838139297227411, 5 * 10 ** 79),
        F(893829710457775973288792508161985801434582399441502038835252349003109463496060599, 25 * 10 ** 78),
    ),
    3: (
        F(30570577589109488956694573360928746192121816950747917271202058080749763584410729527, 5 * 10 ** 79),
        F(477665274829835764948352708764511659251907519080770401672445280415887815296791217, 78125 * 10 ** 73),
    ),
    4: (
        F(5743330645066862188041874421551579679222742312687128715584765238373690620045298276123, 10 ** 80),
        F(143583266126671554701046860538789491980568734153964318148717962440170217410167708211, 25 * 10 ** 77),
    ),
}


@pytest.mark.parametrize("k", sorted(CLOSED_FORM_3_5))
def test_closed_form_noninteger_delta_matches_pinned_brackets(k):
    pn = PowerNonlinearity(c1=F(2), c2=F(3), delta=F(3, 5), family=PowerFamily(power=2, alpha=F(1), beta=F(1)))
    assert closed_form_lower(pn, 2, k) == CLOSED_FORM_3_5[k]
