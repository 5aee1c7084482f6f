"""Byte-stability goldens for the certificate reports.

Each entry is the sha256 of `recgrow <command> --format json` and `--format csv`
stdout, recorded from the Fraction-power implementation of the bounds that
predates the closed form.  Together the cases cover integer parameters, a
`gcd(a, D(l)) > 1` family, rational parameters and the fixed-point orbit
`(1/4, 1, 1/2)`.
"""

import hashlib

import pytest

from recgrow.cli import run

GOLDENS = {
    "bounds --a 1 --b 1 --kmax 6 --lmax 6": (
        "c71f12c2c3b1b168a4bff3c042e71449d79fb1079a172325b83dbe445ba3dbc2",
        "0af87b14b5bdb836a1a5f625e37683f587e82273be1e0c6abbbe0eece60c75f4",
    ),
    "bounds --a 1 --b 9 --kmax 5 --lmax 5": (
        "c186ad98fa7499350acdb10c09bf7059c2e260e002925fd337710815f9eb542d",
        "cc513a64faba2f66137852ac1dbceb8af6d46f8183b12672a3b429421cf75abf",
    ),
    "bounds --a 6 --b 4 --d0 2 --kmax 5 --lmax 5": (
        "9f0feb3fe0ab3d56e86cdd875a68be4a18fc0dac226cc4291f90a2cb5ef1c438",
        "5e3b97384e428e842c8b0674878d4c8aecb8ea37dcb3d2c1f73efd0d07dfc32c",
    ),
    "bounds --a 2 --b 4 --d0 2 --kmax 5 --lmax 5": (
        "504d7145083155ea22609244a8d1cdc49ba5184b194c0283baa83f3925abbabf",
        "0c95ee64cbb7d117e447b709d0f4eda4a5f464161da2d07b55bb40b99aab9773",
    ),
    "bounds --a 1/2 --b 1/2 --d0 35/2 --kmax 5 --lmax 5": (
        "bc161d5f5cd603e38f3d4dce8b25b61a025e8f0e808cc7c60a2fee48fde54abb",
        "4b89bbebded20493dfc3b7ce889e2542abf0d28d009634a8b6034aad6d5d0a10",
    ),
    "bounds --a 3/7 --b 5/3 --d0 11/5 --kmax 5 --lmax 5": (
        "8af3365c95c396ca90d187f14262dd970c6d47deaf89857a76882117da2b3854",
        "23de7874627f51d536054511447f91f1152b65d423130af0fc2cb249b6e9ee62",
    ),
    "bounds --a 1/4 --b 1 --d0 1/2 --kmax 5 --lmax 5": (
        "18250f1dffd8841577520bd121943236d49de482fdfa87c30e4894b165e6e5ef",
        "095a0302b04b0259315507c6abea05bb1f475a10a94111d7d9402b1b75d068b2",
    ),
    "converge --a 1 --b 1 --k 8 --lmax 8": (
        "5662ecea28577f2c9bb2d567d8d6de69d7e31e36b29424f3d0ca8c92bda5cd38",
        "da43d7942da1134e08f8ccf9e691de3f1d102e3283a7ded9276040e0610b4e92",
    ),
    "converge --a 3/7 --b 5/3 --d0 11/5 --k 4 --lmin 2 --lmax 6": (
        "00acedfa61c75995bb2a7622025e02ab984bd82189610592a763952c9c475533",
        "bfe55fded74cdee897e5470160f0955515600e02113bc6fb6507298ade345088",
    ),
    "converge --a 1/4 --b 1 --d0 1/2 --k 3 --lmax 4": (
        "d230addea0088ead66b459829c95f6b62765e8cfe8cb280f1ddab83f608499a2",
        "8262987b376089b0c5e7eb1877508623ed640330352af06008c83ab90bdf3e6f",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDENS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_match_golden(command, fmt, capsys):
    assert run(command.split() + ["--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDENS[command][fmt == "csv"]
