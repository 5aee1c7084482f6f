"""Command lists of the recgrow benchmark workloads.

Each workload is a list of `recgrow` argument strings, run in order as one
*pass*.  A `{d0}` placeholder marks a seeded command: the benchmark seed picks
its seed value `d0 = p/2`.  Every other command is fixed and has a committed
golden digest in `goldens.json`.  WORKLOADS.md gives the reason for each
workload and the layer metrics each one is expected to move.
"""

from __future__ import annotations

import random

#: Odd numerators p of the seeded `d0 = p/2`.  They sit close together so that
#: every seed does nearly the same work (about +-2% in output digits); a wide
#: range would turn seed choice into run-to-run spread.
SEEDED_P = (33, 35, 37, 39)

#: Directory, relative to the checkout root, for the run's scratch files:
#: the input documents of `general` and `matrix`, child stderr, spans, results.
OUT_DIR = ".perfbench_out"

#: The README's example input documents for `general --file` and `matrix --file`.
DOCUMENTS = {
    "family.json": {"c1": "1", "c2": "2", "delta": "1", "power": 2, "alpha": "1", "beta": "1", "d0": "2"},
    "matrix.json": {"a": [["1", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]], "d0": [["1", "0"], ["0", "1"]]},
}

# `--cap 30` equals the documented default; it is passed explicitly because
# the parser's real default differs, and explicit caps stay valid either way.
WORKLOADS = {
    "eval-render": [
        "eval --a 1 --b 1 --n 20 --cap 30 --format json",
        "eval --a 1/2 --b 1/2 --d0 {d0} --n 17 --cap 30 --format json",
    ],
    "certify": [
        "bounds --a 1 --b 1 --kmax 9 --lmax 9 --cap 30 --format json",
        "bounds --a 1/2 --b 1/2 --d0 {d0} --kmax 7 --lmax 7 --cap 30 --format json",
        "converge --a 1 --b 1 --k 8 --lmax 8 --cap 30 --format json",
        f"general --file {OUT_DIR}/family.json --n 6 --format json",
        f"matrix --file {OUT_DIR}/matrix.json --n 6 --format json",
        "ns --d 3 --n 4 --bytes-per-term 16 --budget 1000000 --format json",
    ],
    "growth": [
        "growth --a 1 --b 1 --l 10 --cap 30 --format json",
        "growth --a 1 --b 9 --l 8 --loglog-n 12 --cap 30 --format json",
    ],
    # Not declared in BENCHMARK.json: a pass is all interpreter start and
    # import, whose time drifts far more between runs than compute does (a
    # 30% quartile spread over ten runs on a 2-vCPU VM).  `certify` carries
    # general, matrix and ns for the declared workloads.
    "startup-mix": [
        "eval --a 1 --b 1 --n 7 --cap 30 --format json",
        "bounds --a 1 --b 9 --kmax 3 --lmax 3 --cap 30 --format json",
        "converge --a 1 --b 1 --k 3 --lmax 6 --cap 30 --format json",
        "growth --a 1 --b 1 --l 5 --cap 30 --format json",
        "benchmark --a 1 --b 1 --n 7 --cap 30 --format json",
        f"general --file {OUT_DIR}/family.json --n 6 --format json",
        f"matrix --file {OUT_DIR}/matrix.json --n 6 --format json",
        "ns --d 3 --n 4 --bytes-per-term 16 --budget 1000000 --format json",
    ],
}


def seeded_d0(seed: int) -> str:
    """The seed value `p/2` that benchmark seed `seed` gives the seeded commands."""
    return f"{random.Random(seed).choice(SEEDED_P)}/2"


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(template, argv) for each command of one pass, in order."""
    d0 = seeded_d0(seed)
    return [(template, template.format(d0=d0).split()) for template in WORKLOADS[workload]]


def is_seeded(template: str) -> bool:
    return "{d0}" in template
