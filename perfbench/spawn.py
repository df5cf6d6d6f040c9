"""Run one command and write its CPU time and peak RSS as JSON.

Usage: ``python3 perfbench/spawn.py USAGE_JSON -- COMMAND [ARG...]``

The benchmark launches the program through this small process.  A
process's peak RSS counts the memory of the image it was forked from, so a
launch forked straight from the benchmark (which holds numpy and the speed
probe's arrays) would report the benchmark's size whenever the program
needs less.  This process imports nothing beyond the standard library's
core, so the figures in USAGE_JSON are the program's own: user + system
time and peak RSS of the command and of the workers it waited for.  The
exit status is the command's.
"""

import json
import os
import sys


def main() -> int:
    usage_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    with open(usage_path, "w") as fh:
        json.dump({"cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_kb": usage.ru_maxrss}, fh)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
