"""Runs the benchmark's child processes and reports their resource use.

Linux carries the peak resident size of the process that spawned a child
into the child's ``ru_maxrss``. The benchmark holds its inputs and
references in memory, so it does not spawn the program itself: it starts
this small launcher first, and the launcher spawns every child.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path,
"timeout_s": seconds}``, answered by one JSON line on stdout with the
child's wall time, exit code, user+system CPU seconds and peak RSS.
A child still running at its timeout is killed and reported with the
exit code -9.
"""

import json
import os
import signal
import sys
import threading
import time


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    killer = threading.Timer(request["timeout_s"], os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "exit": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
