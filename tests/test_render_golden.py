"""Byte-stability goldens for the reports that print orbit terms and powers.

Each entry is the sha256 of `recgrow <command>` stdout in `--format json`,
`csv` and `table`, recorded from the implementation that rendered every value
from its int.  The cases cover integer orbits, the published-value
discrepancy rows of `(1, 9, 1)`, rational orbits whose lowest-terms step
divides out a factor (72 then 8 for `(9/4, 1/9, 3/2)`, 5 then 35 for
`(3/7, 5/3, 11/5)`), the fixed-point orbit `(1/4, 1, 1/2)`, an orbit whose
denominators are multiples of the residue check's prime 2^61 - 1, the doubling
benchmark and a rational convergence profile.  `test_bounds_golden.py` covers
`bounds` and the integer `converge`.
"""

import hashlib

import pytest

from recgrow.cli import run

FORMATS = ("json", "csv", "table")

GOLDENS = {
    "eval --a 1 --b 1 --d0 1 --n 18": (
        "65473665d62aeeff51e959d6e0162f1307fb29e8f257c39cabf9b7b882937208",
        "bd066751e14baa22f2cd196dea162481cbf5f04e7e9d9cd42935331c9f1cd71e",
        "0a9924c56f8185477cf71299d0fc615c5ecd619a5ad415259ff5394f9262a1b3",
    ),
    "eval --a 1 --b 9 --d0 1 --n 10": (
        "4d6f4f0008d02e6c6c068ccba0ede8366a1418077fe329a39e70286c166e3257",
        "cea8fe03ce08e3a0374ca1d291cd123d7a6a7e16429dd41fefe2307a57dab705",
        "2704dd8eabc1eddc8ad5a66be6a65fdd087dd2dbb88081948d5cf7e9264b215e",
    ),
    "eval --a 1/2 --b 1/2 --d0 35/2 --n 14": (
        "ca1d0e8ed0a585e77ccdf83b6a1089b0edc246c2221d5a29204a295a80dbc724",
        "3815dfd497a58db74aef93cf1af48ee772233dbea80a79e3f820fcfdaedce05d",
        "a6e174bb6a70aa6c5ca53362d18390cd7f73f7b0a65339fb7a201602ab53191d",
    ),
    "eval --a 9/4 --b 1/9 --d0 3/2 --n 12": (
        "e23cbe40c10513dedff0bf1af8d14b545e72482c6dfa2a34891f7a76da17f20b",
        "16d94e9742d34076bff190d54d2208778c991dd4c8bf09db408336a2a03ac177",
        "0e2c331b63dff77b112f3f103339dfd33d70760a4d5465360dd3414d2eba70e1",
    ),
    "eval --a 3/7 --b 5/3 --d0 11/5 --n 12": (
        "c501b8c6029e660baf39df83a02e8efa454c9d0dffcbc6963331d31a9c92f5c7",
        "eb2fd5ef5b20d0f56fc5292cf7e649b82d39cffc48a6373e0753e81b55378c93",
        "bc1829d19e273efd9a71e145b1d5bf11f296abaaa113bbbf76c9a973d0e42c31",
    ),
    "eval --a 1/4 --b 1 --d0 1/2 --n 8": (
        "720aec680794d50cf0578d997c42239c7935534b2dc32b091439f95f5be96dd7",
        "c92f07741daefb33bad64f4a71b199d49c7c52d53d38584baa45e51d312270d7",
        "ea8aae6c42dc5bf4111f9da243b94c24dfef90f440f5ea33a252d3f3caa58915",
    ),
    "eval --a 2305843009213693951 --b 1/2305843009213693951 --n 4": (
        "b9f9e3a4405e14a755759c2bd26e20989aa61eaf3c3867ae83c2f36f6e4eb2ce",
        "fbabfb532816cc79e2acc75eaacc2e2653e3f323089eca54d2c7ce61aa223216",
        "484692e1edb457bbf9da00d9eff5048a7ca09243ac259348062760f7175a7680",
    ),
    "benchmark --a 1 --b 1 --n 14": (
        "a93edd99eee20af49aa64ce00239434340b8ec85bf81bbb5e5de47c2e9464f2f",
        "fbbdd29cfc16c871fbce2df92e5aba6705aefc95723e5efba08769499de8787a",
        "67edcf8c25f850e890bd526a5d16e0f10c28231e066c6e6a9208bcac902b06f3",
    ),
    "converge --a 3/7 --b 5/3 --d0 11/5 --k 5 --lmax 5": (
        "33fe4dc10ba031f5fed56259275cdf7b404cf5f2a08fef07c5a72c6dbf055e4a",
        "2808793e2a29b7b0520c4fc9dea27f2a681cb6c09ed5d34cbb960f53c35e4645",
        "ce77769bbb19a71ea7e88eb3e553fe3f6f6a3633e6cdf3e9ea29b7c546e9be78",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDENS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_report_bytes_match_golden(command, fmt, capsys):
    assert run(command.split() + ["--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDENS[command][FORMATS.index(fmt)]
