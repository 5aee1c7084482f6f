"""Helper process that runs `python -m recgrow.cli` invocations for run.py.

Linux starts an exec'd child's `ru_maxrss` at the peak RSS of the address
space it replaced, which under vfork is the parent's.  Children forked from
run.py, which holds megabyte reports and big integers, would therefore report
the benchmark's own peak memory.  This helper imports only the standard
library and stays small, so its children's `ru_maxrss` is their own.

Protocol, one invocation at a time: read one JSON line (the argv) on stdin;
run the child with this process's cwd and environment; write one JSON line
`{code, wall_s, cpu_s, maxrss_kib, nbytes}` and then the child's `nbytes`
bytes of stdout.  Child stderr goes to the file named by argv[1].
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 60


def invoke(argv: list, stderr) -> tuple:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "recgrow.cli", *argv], stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    head = {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "nbytes": len(out),
    }
    return head, out


def main() -> None:
    with open(sys.argv[1], "wb") as stderr:
        for line in sys.stdin.buffer:
            head, out = invoke(json.loads(line), stderr)
            sys.stdout.buffer.write(json.dumps(head).encode() + b"\n" + out)
            sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
