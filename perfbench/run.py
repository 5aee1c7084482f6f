"""recgrow benchmark: closed-loop CLI workloads, a traced per-layer run and output checks.

Run from the repository root, which must hold the sources under `src/`:

    python3 perfbench/run.py --workload eval-render --seed 1 --seconds 20 --trace 0

`--trace 0` runs the workload's command list as `python -m recgrow.cli`
subprocesses, one at a time (a closed loop with one client), for `--seconds`
seconds, and reports the end-to-end metrics.  `--trace 1` drives
`recgrow.cli.run` in-process instead, alternating untraced and traced passes,
and reports the per-layer metrics.  Either way every output is checked: fixed
commands against the committed goldens, seeded commands by the independent
oracle.  A nonzero exit code or a failed check counts as a failed invocation.

The last line of stdout is one JSON object `{correct, attempted, failed,
metrics}`; the lines before it give each metric with its unit and sample
count, and the run metadata.  `--workload all` runs every workload in turn.
`--write-goldens` regenerates `goldens.json` from the current sources; run it
only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import mpmath

import oracle
import tracing
from workloads import DOCUMENTS, OUT_DIR, WORKLOADS, commands, is_seeded, seeded_d0

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{name: "s" for name in tracing.time_metrics()},
    "cli.import_s": "s",
    "cli.import_mpmath_s": "s",
    "recurrence.calls": "count",
    "recurrence.max_bits": "bit",
    "bounds.certificates": "count",
    "bounds.max_operand_bits": "bit",
    "growth.digits": "digit",
    "growth.radicand_digits": "digit",
    "growth.radicand_per_digit": "ratio",
    "roots.calls": "count",
    "serialize.calls": "count",
    "serialize.bytes_out": "byte",
    "serialize.max_value_digits": "digit",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "trace.overhead_s": "s",
}

MIN_PASSES = 3
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
FRESH_PYTHON_TIMEOUT_S = 60


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "recgrow", "cli.py")):
        sys.exit(f"perfbench: no recgrow sources under {os.path.join(root, 'src')}; run from the repository root")
    return root


def child_env(root: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def write_documents(root: str) -> None:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    for name, doc in DOCUMENTS.items():
        with open(os.path.join(root, OUT_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def metadata() -> dict:
    """Interpreter facts that change int->str and mpmath costs; compare only equal ones."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


class Spawner:
    """Runs CLI invocations one at a time through the small helper in spawner.py.

    The helper keeps `ru_maxrss` the child's own: a child forked from this
    process would start at this process's peak RSS.
    """

    def __init__(self, root: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py"), os.path.join(root, OUT_DIR, "stderr.txt")],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def invoke(self, argv: list[str]) -> tuple[dict, bytes]:
        """{code, wall_s, cpu_s, maxrss_kib} of one finished invocation, and its stdout."""
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the spawner helper exited")
        head = json.loads(line)
        return head, self.proc.stdout.read(head["nbytes"])

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def fresh_python(code: str, root: str, env: dict) -> tuple[float, str]:
    """Wall seconds and stdout of `python -c code` in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=FRESH_PYTHON_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"perfbench: `python -c {code!r}` failed:\n{done.stderr}")
    return wall, done.stdout


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


class OutputGate:
    """Decides whether one invocation's output is right.

    A fixed command must reproduce its committed golden: the sha256 of stdout
    and the exit code.  A seeded command has no golden; the oracle checks its
    first output in the run, and later invocations must reproduce that output
    byte for byte.
    """

    def __init__(self):
        self.goldens = load_goldens()
        self.expected: dict[str, tuple[str, int]] = {}

    def first(self, template: str, argv: list[str], code: int, out: bytes) -> list[str]:
        """Check the run's first output of a command; returns the problems found."""
        problems = oracle.check(argv, out) if code == 0 else [f"exit code {code}"]
        got = (sha256(out), code)
        if is_seeded(template):
            if not problems:
                self.expected[template] = got
        elif template not in self.goldens:
            problems.append("no committed golden")
        else:
            golden = self.goldens[template]
            self.expected[template] = (golden["sha256"], golden["exit"])
            if got != self.expected[template]:
                problems.append("stdout or exit code differs from the golden")
        return problems

    def ok(self, template: str, code: int, out: bytes) -> bool:
        return self.expected.get(template) == (sha256(out), code)


class Tally:
    """Invocations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, template: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: FAILED {template}: {'; '.join(problems)}", file=sys.stderr)


def measure_end_to_end(workload: str, seed: int, seconds: float, root: str) -> tuple[Tally, dict, dict]:
    env = child_env(root)
    cmds = commands(workload, seed)
    fresh_python("import recgrow.cli", root, env)  # compiles the bytecode caches once
    setup = [fresh_python("import recgrow.cli", root, env)[0] for _ in range(SETUP_SAMPLES)]
    gate, tally = OutputGate(), Tally()
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mib": [], "setup_s": setup}
    with Spawner(root) as spawner:
        # untimed reference pass: the goldens and the oracle judge each first output
        for template, argv in cmds:
            head, out = spawner.invoke(argv)
            tally.count(template, gate.first(template, argv, head["code"], out))
        start = time.perf_counter()
        while len(samples["wall_s"]) < MIN_PASSES or time.perf_counter() - start < seconds:
            heads = []
            for template, argv in cmds:
                head, out = spawner.invoke(argv)
                tally.count(template, [] if gate.ok(template, head["code"], out) else ["output differs from the reference"])
                heads.append(head)
            samples["wall_s"].append(sum(h["wall_s"] for h in heads))
            samples["cpu_s"].append(sum(h["cpu_s"] for h in heads))
            samples["peak_rss_mib"].append(max(h["maxrss_kib"] for h in heads) / 1024)
            # one more set-up sample per pass, so set-up is sampled across the whole run
            setup.append(fresh_python("import recgrow.cli", root, env)[0])
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return tally, metrics, samples


def run_in_process(cli, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)  # looked up at call time, so the traced binding is used when installed
    return code, out.getvalue().encode("utf-8")


def timed_pass(cli, cmds, gate: OutputGate, tally: Tally) -> float:
    start = time.perf_counter()
    for template, argv in cmds:
        code, out = run_in_process(cli, argv)
        tally.count(template, [] if gate.ok(template, code, out) else ["output differs from the reference"])
    return time.perf_counter() - start


def import_recgrow(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import recgrow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported recgrow from {cli.__file__}, not from {src}")
    return cli


def measure_layers(workload: str, seed: int, seconds: float, root: str) -> tuple[Tally, dict, dict]:
    env = child_env(root)
    cmds = commands(workload, seed)
    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    samples = {}
    for metric, module in (("cli.import_s", "recgrow.cli"), ("cli.import_mpmath_s", "mpmath")):
        fresh_python(timer.format(module), root, env)
        samples[metric] = [float(fresh_python(timer.format(module), root, env)[1]) for _ in range(IMPORT_SAMPLES)]
    cli = import_recgrow(root)
    gate, tally, tracer = OutputGate(), Tally(), tracing.Tracer()
    for template, argv in cmds:
        code, out = run_in_process(cli, argv)
        tally.count(template, gate.first(template, argv, code, out))
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(timed_pass(cli, cmds, gate, tally))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(timed_pass(cli, cmds, gate, tally))
        finally:
            tracer.uninstall()
        passes.append((first, len(tracer.spans)))
    for name in tracer.missing:
        print(f"perfbench: {name} no longer exists; not traced", file=sys.stderr)
    per_pass = [tracing.pass_metrics(tracer.spans[a:b]) for a, b in passes]
    for metric in per_pass[0]:
        samples[metric] = [m[metric] for m in per_pass]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    with open(os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for number, (a, b) in enumerate(passes):
            for span in tracer.spans[a:b]:
                fh.write(json.dumps({"pass": number, **span.__dict__}) + "\n")
    return tally, metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str, meta: dict) -> dict:
    measure, units = (measure_layers, PER_LAYER_UNITS) if trace else (measure_end_to_end, END_TO_END_UNITS)
    tally, metrics, samples = measure(workload, seed, seconds, root)
    meta = {**meta, "workload": workload, "seed": seed, "d0": seeded_d0(seed), "seconds": seconds, "trace": int(trace)}
    print(f"# {workload} seed={seed} meta {json.dumps(meta, sort_keys=True)}")
    for name in sorted(units):
        print(f"# {workload} {name} = {metrics[name]:.6g} {units[name]} (median of {len(samples[name])})")
    print(f"# {workload} fail_ratio = {tally.failed}/{tally.attempted} invocations")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(root, OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "meta": meta, "samples": samples}, fh, indent=1, sort_keys=True)
    return result


def write_goldens(root: str) -> None:
    goldens = {}
    with Spawner(root) as spawner:
        for workload in WORKLOADS:
            for template, argv in commands(workload, 0):
                if is_seeded(template):
                    continue
                head, out = spawner.invoke(argv)
                code = head["code"]
                problems = oracle.check(argv, out) if code == 0 else [f"exit code {code}"]
                if problems:
                    sys.exit(f"perfbench: not writing goldens, {template}: {'; '.join(problems)}")
                goldens[template] = {"sha256": sha256(out), "exit": code}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true", help="regenerate goldens.json and exit")
    args = parser.parse_args()
    root = checkout_root()
    meta = metadata()  # before recgrow, which lifts the int->str digit limit, is imported
    write_documents(root)
    if args.write_goldens:
        write_goldens(root)
        return
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, meta)))
        return
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), root, meta) for w in WORKLOADS}
    print(json.dumps(results))


if __name__ == "__main__":
    main()
