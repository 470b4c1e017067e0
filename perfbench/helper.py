"""A small long-lived child of run.py that starts the CLI processes and
times the calibration loop.

Linux charges a new process with the peak RSS of the process it was forked
from, so CLI children are started from here, where memory stays small,
rather than from run.py, which holds the workload's inputs; their peak RSS
from ``wait4`` is then their own.  The calibration loop runs here for the
same reason: the memory state the measured ops leave behind in run.py does
not reach it.  The speed of a shared machine drifts (on a 2-vCPU Intel Xeon
VM a fixed loop took anywhere from 0.35 to 0.69 s within 90 seconds), so
run.py scales each timing by the calibration timed just before and after it.

Protocol: one JSON request per stdin line, one JSON reply per stdout line;
end of input ends the process.
  {"calibrate": true}                           -> {"seconds": s}
  {"argv": [...], "stdout": path, "stderr": path} -> {"seconds": s, "code": c, "maxrss_kb": k}
"""

import json
import os
import sys
from fractions import Fraction
from time import perf_counter

CALIBRATION_STEPS = 3000


def calibrate() -> float:
    """Seconds for a fixed mix of Fraction arithmetic and dict updates."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 7)
        table[i % 97] = table.get(i % 97, 0) + i
    return perf_counter() - start


def run(argv: list, stdout: str, stderr: str) -> dict:
    """Start ``python argv`` with stdout and stderr in files and reap it with wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return {"seconds": perf_counter() - start, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss}


if __name__ == "__main__":
    calibrate()
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"seconds": calibrate()} if request.get("calibrate") else run(
            request["argv"], request["stdout"], request["stderr"])
        print(json.dumps(reply), flush=True)
