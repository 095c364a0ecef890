"""CLI op launcher: starts each ``epgate`` command of a CLI workload.

    python perfbench/launcher.py

``client.py`` starts this process before it imports ``epgate``, so it stays
small.  Linux carries the spawning process's resident-set high-water mark
into a child's ``ru_maxrss`` across ``exec``; a CLI op spawned by the client
itself would read at least the client's own peak (numpy, ``epgate`` and the
validation of the previous op).  Spawned from here, the floor is this
process's size, which ``client.py`` reads once per run by launching
``python -c pass``.

Reads one JSON request per line on standard input,
``[argv, stdout_path, stderr_path]``, runs ``argv`` with standard input from
``/dev/null`` and standard output and error written to those files, waits
for it, and answers with one JSON line ``[exit_code, ru_maxrss_kib]``.
Exits at the end of its input.  Imports nothing but ``json``, ``os`` and
``sys``.
"""

import json
import os
import sys


def main() -> int:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps([os.waitstatus_to_exitcode(status),
                          usage.ru_maxrss]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
