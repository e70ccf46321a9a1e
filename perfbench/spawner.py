"""Run one program process at a time and report its resource use.

The benchmark driver starts this script once and sends it one JSON request
per line on stdin: ``{"argv": [...], "stdout": path, "stderr": path}``.  It
spawns the command, waits for it with ``os.wait4`` and answers with one
JSON line: wall seconds from spawn to exit, user plus system CPU seconds,
peak resident set in MB, and the exit code.

Why a separate process: Linux charges a child's ``ru_maxrss`` with the
resident set of the process that spawned it, so children spawned by the
driver (which holds the reference data) would report the driver's memory.
This process stays small and imports nothing heavy.  It exits when stdin
closes.
"""

import json
import os
import sys
import time

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv, stdout, stderr):
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, _FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, _FLAGS, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return {"wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
