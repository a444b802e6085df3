"""Run one command in a fresh child process under its own limits.

The child gets an address-space limit (``RLIMIT_AS``) and a wall-clock
timeout.  Its peak RSS and CPU time come from ``os.wait4`` on that child
alone; nothing else on the machine is read.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    argv: list
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None   # None when killed by a signal
    signal: int | None
    timed_out: bool
    stdout: str
    stderr: str


def _limit_memory(max_bytes: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return apply


def run_child(argv, *, env, cwd, timeout_s: float, max_bytes: int, tmpdir: str) -> ChildResult:
    """Start ``argv``, wait for it to end or kill it at ``timeout_s``, and
    return its wall time, CPU time, peak RSS, exit status and output."""
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd, preexec_fn=_limit_memory(max_bytes))
        timed_out = reaped = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout_s)
            if not ready:
                timed_out = True
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                select.select([pidfd], [], [])
            wall = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            if not reaped:  # interrupted: leave no child behind
                try:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(proc.pid, 0)
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)  # keeps Popen from reaping again
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
    return ChildResult(
        argv=list(argv),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        returncode=None if sig is not None else os.WEXITSTATUS(status),
        signal=sig,
        timed_out=timed_out,
        stdout=stdout,
        stderr=stderr,
    )
