"""Child processes with wall time, peak RSS and crash isolation.

Every child the benchmark starts goes through here.  A child that dies on
a signal (the SIGSEGV of a racing thread pool, say) comes back as a
`ChildResult` with `signal` set -- it is a failed operation, never an
exception that loses the run.
"""

import os
import signal
import subprocess
import tempfile
import threading
import time


class ChildResult:
    def __init__(self, returncode, wall_s, maxrss_mib, stdout, stderr, timed_out):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mib = maxrss_mib
        self.stdout = stdout
        self.stderr = stderr
        self.timed_out = timed_out

    @property
    def signal(self):
        """The signal number that killed the child, or None."""
        return -self.returncode if self.returncode < 0 else None

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out

    def describe(self):
        if self.timed_out:
            return "timed out"
        if self.signal is not None:
            return "died on %s" % signal.Signals(self.signal).name
        return "exit %d" % self.returncode


def _decode_exit(status):
    if os.WIFSIGNALED(status):
        return -os.WTERMSIG(status)
    return os.WEXITSTATUS(status)


# The CPU that engine processes run on when they must not run in parallel
# (see derive.py): the last one this process may use.
ONE_CPU = max(os.sched_getaffinity(0))


def run(args, timeout_s=120.0, one_cpu=False):
    """Runs `args` to completion and returns a ChildResult.

    Output goes to temporary files, not pipes, so a chatty child can never
    block on a full pipe while we wait for it.  The child is reaped with
    wait4, which gives its own peak RSS.  With `one_cpu` the child may run
    on ONE_CPU only: the calling thread takes that affinity for the fork,
    which the child inherits, and gets its own back at once.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        mask = os.sched_getaffinity(0)
        if one_cpu:
            os.sched_setaffinity(0, {ONE_CPU})
        try:
            start = time.perf_counter()
            child = subprocess.Popen(args, stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, mask)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                child.kill()
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        child.returncode = _decode_exit(status)  # already reaped
        out.seek(0)
        err.seek(0)
        return ChildResult(child.returncode, wall, usage.ru_maxrss / 1024.0,
                           out.read().decode(errors="replace"),
                           err.read().decode(errors="replace"),
                           timed_out.is_set())


class Daemon:
    """A long-running child (relb_served) whose stdout is read line by line.

    `stop()` sends SIGTERM, waits for the drain, and records the exit status
    and peak RSS; it kills the child if the drain does not finish in time.
    """

    def __init__(self, args):
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL,
                                     stdin=subprocess.DEVNULL)
        self.returncode = None
        self.maxrss_mib = 0.0

    def readline(self, timeout_s):
        """The next stdout line, or None on EOF or timeout."""
        result = []

        def read():
            result.append(self.proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout_s)
        if not result or not result[0]:
            return None
        return result[0].decode(errors="replace").rstrip("\n")

    def _reaped(self, status, usage):
        self.returncode = _decode_exit(status)
        self.proc.returncode = self.returncode
        self.maxrss_mib = usage.ru_maxrss / 1024.0

    def stop(self, timeout_s=30.0):
        if self.returncode is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            timer = threading.Timer(timeout_s, self.proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            self._reaped(status, usage)
        self.proc.stdout.close()
        return self.returncode
