"""The benchmark's output gate, replayed in-process: every fixed command of perfbench reproduces its
committed golden (sha256 of stdout and exit code), and every seeded command passes the independent
oracle at each seed value, so a change of output bytes fails here before it fails the benchmark."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import recgrow.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import oracle  # noqa: E402
import workloads  # noqa: E402

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))
TEMPLATES = sorted({t for templates in workloads.WORKLOADS.values() for t in templates})
SEEDED = [t for t in TEMPLATES if workloads.is_seeded(t)]


def _run(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """A checkout-like working directory holding perfbench's input documents."""
    (tmp_path / workloads.OUT_DIR).mkdir()
    for name, doc in workloads.DOCUMENTS.items():
        (tmp_path / workloads.OUT_DIR / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_every_fixed_command_has_a_golden():
    assert sorted(t for t in TEMPLATES if not workloads.is_seeded(t)) == sorted(GOLDENS)


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_fixed_command_reproduces_its_golden(command, bench_dir):
    code, out = _run(command.split())
    assert (hashlib.sha256(out).hexdigest(), code) == (GOLDENS[command]["sha256"], GOLDENS[command]["exit"])


@pytest.mark.parametrize("p", workloads.SEEDED_P)
@pytest.mark.parametrize("template", SEEDED)
def test_seeded_command_passes_the_oracle(template, p):
    argv = template.format(d0=f"{p}/2").split()
    code, out = _run(argv)
    assert code == 0
    assert oracle.check(argv, out) == []
