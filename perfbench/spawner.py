"""Start benchmark commands from a small process and report their rusage.

A process's max-RSS (`ru_maxrss`) counts the pages of the process it was
forked from, so a command started by the benchmark harness would report at
least the harness's own size.  This helper stays small: it imports only what
it needs, sends the commands' output to files, and never holds it.

Protocol, one JSON object per line:
    stdin:  {"argv": [...], "cpu": 0}
    stdout: {"status": 0, "cpu_s": 1.23, "maxrss_kb": 23456}
The command runs on the given CPU, in this process's working directory and
environment, with stdout and stderr written to the two files named on this
helper's command line.  A command that runs longer than the timeout (third
argument, seconds) is killed.  The helper exits at end of input.
"""

import json
import os
import signal
import sys


def main() -> int:
    out_path, err_path, timeout = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            os.sched_setaffinity(0, {request["cpu"]})
            try:
                pid = os.posix_spawnp(
                    argv[0],
                    argv,
                    os.environ,
                    file_actions=[
                        (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                        (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                    ],
                )
            finally:
                os.sched_setaffinity(0, cpus)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(timeout)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        reply = {
            "status": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
