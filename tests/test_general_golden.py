"""Goldens for `general` with a non-integer delta.

The command lines below once printed pinned reports, for the README's
family with delta = 1/2 or 3/5 and C2 = 10^50, while the command checked the
sandwich only at the orbit values.  For z > 10^100, z^2 + 1 > 10^50 * z^(3/2),
so the claim is false for z >= 1 and each line now exits 2, as does the same
family at --n 0, where no step is taken but no power 2 meets 1 + delta.
"""

import json

import pytest

from recgrow.cli import run

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

