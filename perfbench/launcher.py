"""Spawns, times and reaps the benchmark's CLI steps, one request at a time.

On Linux, exec keeps the high-water RSS of the process image it replaces,
so a child spawned straight from the benchmark would report at least the
benchmark's own peak. This helper stays small (standard library only, no
work of its own), so each step's max-RSS is the step's.

Protocol: one JSON object per line on stdin with ``argv``, ``cwd``, ``out``,
``err`` and ``limit`` (seconds); one JSON list per line on stdout:
``[returncode, seconds, max_rss_mb, timed_out]``. A step still running at
its limit is killed.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def run(argv: list, cwd: str, out: str, err: str, limit: float) -> list:
    with open(out, "w") as out_fh, open(err, "w") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out_fh, stderr=err_fh)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(limit, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, seconds, usage.ru_maxrss / 1024, not ready]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
