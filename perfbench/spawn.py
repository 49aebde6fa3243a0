"""Child launcher: runs the commands sent as JSON lines on stdin, one at a time,
and answers each with one JSON line of its wall time and rusage.

Linux charges a process's max-RSS with the peak RSS of the address space it
was started from (``vfork`` shares the parent's until ``exec``). The benchmark
process holds references of a hundred MB or more, so a CLI child it started
directly would report the benchmark's memory, not its own. This launcher stays
small, so the children it starts report their own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, env=job["env"], cwd=job["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
        print(json.dumps({
            "wall": wall,
            "utime": usage.ru_utime,
            "stime": usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "minflt": usage.ru_minflt,
            "nivcsw": usage.ru_nivcsw,
            "status": proc.returncode,
        }), flush=True)


if __name__ == "__main__":
    main()
