"""Start processes for the harness and report their wall time and peak RSS.

Run as `python -S bench/launcher.py` with the child environment and the
checkout root as working directory.  Each stdin line is a JSON request
{"argv", "out", "timeout"} where argv follows the interpreter (for a CLI
call, ["-m", "coronawalk.cli", ...]); each stdout line answers it with
{"exit_code", "wall", "maxrss_kb", "timed_out"}.

It exists because Linux records, in a child's peak RSS, the peak RSS of the
process it was spawned from: spawned from the harness (numpy, oracle data)
every child would report at least the harness's peak.  This process imports
only a few standard modules, so its own small peak stays below any child's.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, out, timeout):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, out + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    args = [sys.executable, *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, os.environ, file_actions=actions)
    timed_out = False
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
            timed_out = True
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"exit_code": os.waitstatus_to_exitcode(status), "wall": wall,
            "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["out"], req["timeout"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
