"""Smoke test of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/selftest.py

Short runs of both modes must emit exactly the metrics BENCHMARK.json names,
with their units; the oracle must pass real reports and reject tampered ones.
"""

import json
import os
import subprocess
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, key):
    done = _bench("--workload", "startup-mix", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert f"fail_ratio = 0/{result['attempted']} invocations" in done.stdout


def test_refuses_to_run_without_the_sources():
    done = _bench("--workload", "growth", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=HERE)
    assert done.returncode != 0
    assert done.stdout == ""


def _report(argv: list[str]) -> dict:
    code, out = run.run_in_process(run.import_recgrow(ROOT), argv)
    assert code == 0
    assert oracle.check(argv, out) == []
    return json.loads(out)


def _check(argv: list[str], doc: dict) -> list[str]:
    return oracle.check(argv, json.dumps(doc).encode())


def test_oracle_rejects_one_changed_digit_of_an_eval_value():
    argv = "eval --a 1/2 --b 1/2 --d0 35/2 --n 6 --format json".split()
    doc = _report(argv)
    value = doc["results"]["values"][6]
    i = value.index("/") - 1
    doc["results"]["values"][6] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1 :]
    assert _check(argv, doc) == ["D(6) wrong"]


def test_oracle_rejects_c_hi_nudged_below_c():
    argv = "growth --a 1 --b 1 --l 6 --format json".split()
    doc = _report(argv)
    res = doc["results"]
    digits = res["digits"]
    c = oracle.growth_constant(1, 1, 1, digits + 30)
    scaled = int(res["c_hi"].replace(".", ""))
    with mpmath.workdps(digits + 30):
        while mpmath.mpf(scaled) / 10**digits >= c:
            scaled -= 1
    text = str(scaled)
    res["c_hi"] = f"{text[:-digits]}.{text[-digits:]}"
    assert _check(argv, doc) and "outside [c_lo, c_hi]" in _check(argv, doc)[0]


def test_parse_int_is_exact_and_canonical():
    x = 7**50_000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(x)
    finally:
        sys.set_int_max_str_digits(limit)
    assert oracle.parse_int(text) == x
    with pytest.raises(ValueError):
        oracle.parse_int("012")


def test_self_time_excludes_wrapped_callees():
    spans = [
        tracing.Span(1, "cli.self", "recgrow.cli.run", 1, None, 0.0, 10.0),
        tracing.Span(2, "bounds.certify", "recgrow.bounds.certify", 1, 1, 2.0, 6.0),
        tracing.Span(3, "recurrence.evaluate", "recgrow.bounds.evaluate", 1, 2, 3.0, 4.0),
    ]
    metrics = tracing.pass_metrics(spans)
    assert (metrics["cli.self_s"], metrics["bounds.certify_s"], metrics["recurrence.evaluate_s"]) == (6.0, 3.0, 1.0)
    assert metrics["recurrence.calls"] == 1


def test_a_missing_binding_is_skipped_and_counts_zero(monkeypatch):
    cli = run.import_recgrow(ROOT)
    original = cli.run
    targets = [("recgrow.cli", "run", "cli.self", None), ("recgrow.growth", "no_such_root", "roots.root", None)]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = run.run_in_process(cli, "growth --a 1 --b 1 --l 3 --format json".split())
    finally:
        tracer.uninstall()
    assert code == 0 and cli.run is original
    assert tracer.missing == ["recgrow.growth.no_such_root"]
    assert [s.name for s in tracer.spans] == ["recgrow.cli.run"]
    assert tracing.pass_metrics(tracer.spans)["roots.calls"] == 0
