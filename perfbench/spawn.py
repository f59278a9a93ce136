"""Run one command; print its wall time, CPU time, peak RSS and exit code.

    python3 perfbench/spawn.py TIMEOUT_S STDOUT_FILE STDERR_FILE CMD...

`run.py` starts every timed CLI pass through this small fresh interpreter.
Linux counts in a child's ru_maxrss the resident size of the process that
spawned it, so a pass spawned by the benchmark itself would report the
benchmark's memory when that is the larger.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import List


def main(argv: List[str]) -> int:
    timeout_s, out_path, err_path, cmd = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024,
                      "exit_code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
