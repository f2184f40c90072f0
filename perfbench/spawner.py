"""Start commands on request; report exit code, wall time and peak RSS.

Linux carries a process's resident-set high-water mark across exec, so a
child forked from the large benchmark process would report at least the
benchmark's own RSS. The benchmark starts this small process before it
grows and has it fork the children whose memory it measures.

Protocol: one JSON list [argv, cwd, stdout path, stderr path] per input
line, answered by one JSON list [exit code, wall seconds, peak RSS in kB].
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        argv, cwd, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
