"""Runs the benchmark's child processes and reports their peak RSS.

On Linux the peak RSS that ``os.wait4`` reports for a child counts the
memory of the process it was spawned from, so a child spawned by the
benchmark, which holds whole corpora, would report the benchmark's size.
The benchmark therefore starts this process first, while it is still
small, and has it spawn every child.

Protocol: one JSON list of arguments per line on stdin; for each, one
JSON line on stdout with the exit code, wall seconds and peak RSS in KiB.
Children run in this process's working directory and environment, with
stdin and stdout on /dev/null and stderr to ``stderr.txt``. The process
exits when stdin closes.
"""
import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
