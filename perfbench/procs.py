"""Child processes with wall time, rusage and a hard timeout."""

import os
import signal
import subprocess
import threading
import time


class Result:
    __slots__ = ("args", "code", "wall_s", "cpu_s", "rss_mb", "out", "err")

    def __init__(self, args, code, wall_s, ru, out, err):
        self.args = args
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = (ru.ru_utime + ru.ru_stime) if ru is not None else 0.0
        self.rss_mb = (ru.ru_maxrss / 1024.0) if ru is not None else 0.0  # ru_maxrss is KiB
        self.out = out
        self.err = err


def reap(proc, timeout_s):
    """Wait for `proc` up to `timeout_s`, then SIGKILL it.

    Returns (exit_code, rusage); exit_code is None when the child had to
    be killed. The child is always reaped before this returns. The wait
    blocks in the kernel (a timer thread delivers the kill), so the benchmark
    process takes no CPU while a timed child runs.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the
        # timer is disarmed; then reap for the exit status and rusage.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if state["killed"] else proc.returncode), ru


def stop(proc, drain_s):
    """SIGTERM, a drain of at most `drain_s`, then SIGKILL.

    Returns (exit_code, rusage); exit_code is None when the drain ran out.
    """
    if proc.returncode is None:
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    return reap(proc, drain_s)


def run_timed(args, cwd=None, timeout_s=120.0, out_path=None):
    """Run one command with exact wall time and the child's own rusage.

    stdout goes to `out_path` (or is discarded), stderr to a pipe-free
    temporary file next to it, so no reader thread competes with the
    child for the CPU while it is timed.
    """
    out_f = open(out_path, "wb") if out_path else open(os.devnull, "wb")
    err_path = (out_path + ".err") if out_path else os.devnull
    err_f = open(err_path, "wb")
    with open(os.devnull, "rb") as devnull:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdin=devnull, stdout=out_f, stderr=err_f)
        code, ru = reap(proc, timeout_s)
        wall = time.perf_counter() - t0
    out_f.close()
    err_f.close()
    out = b""
    err = b""
    if out_path:
        with open(out_path, "rb") as f:
            out = f.read()
        with open(err_path, "rb") as f:
            err = f.read()
    return Result(args, code, wall, ru, out, err)
