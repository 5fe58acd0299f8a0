"""Trampoline: ``python spawn.py USAGE_FILE COMMAND...`` runs COMMAND as its child.

Linux seeds a process's ``ru_maxrss`` at ``exec`` with the resident-set
high-water mark of the process that spawned it, so a child started straight
from the harness — which has just generated a dataset in its own heap —
reports the harness's peak, never less.  This process stays at interpreter
size, so the ``os.wait4`` figures it writes to USAGE_FILE are COMMAND's own:
peak resident set, user and system CPU seconds, and the wall time from spawn
to exit.  COMMAND inherits standard input, output and error; its exit status
is passed on (a death by signal N as 128 + N).

It imports nothing of the benchmark or of ``repro``, on purpose.
"""

import json
import os
import sys
import time


def main() -> int:
    usage_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    with open(usage_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
            },
            handle,
        )
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
