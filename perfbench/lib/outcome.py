"""Operation accounting shared by every workload.

An operation fails if it dies on a signal, exits non-zero, returns a
non-200 status, or returns a wrong output.  A wrong output also makes the
run incorrect.  Crashes are retried, and every crashed attempt stays
counted, so `failed / attempted` is the error rate over attempts.
"""

import collections

from . import proc

CRASH_RETRIES = 10


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = collections.Counter()  # reason -> count
        self.wrong = []                        # wrong outputs, described
        self.peak_rss_mib = 0.0

    @property
    def correct(self):
        return not self.wrong

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def ok(self):
        self.attempted += 1

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        self.failures[reason] += 1

    def mismatch(self, what):
        """Marks an operation already counted as attempted as failed: it
        returned a wrong output, which also makes the run incorrect."""
        self.failed = min(self.attempted, self.failed + 1)
        self.failures["wrong output"] += 1
        self.wrong.append(what)

    def child(self, result):
        """Accounts one child process; True when it exited 0."""
        self.peak_rss_mib = max(self.peak_rss_mib, result.maxrss_mib)
        if result.ok:
            self.ok()
            return True
        self.fail(result.describe())
        return False


def run_retrying(outcome, args, before_retry=None, timeout_s=120.0, one_cpu=False):
    """Runs a child, retrying it while it dies on a signal.

    Returns (result, crashed_wall_s): the last attempt's ChildResult and the
    wall time spent in crashed attempts.  `before_retry` restores whatever a
    crashed attempt may have left half done (a half-written store, say).
    `one_cpu` is passed on to proc.run.
    """
    crashed_s = 0.0
    for attempt in range(CRASH_RETRIES):
        result = proc.run(args, timeout_s=timeout_s, one_cpu=one_cpu)
        outcome.child(result)
        if result.signal is None or result.timed_out:
            return result, crashed_s
        crashed_s += result.wall_s
        if before_retry is not None and attempt + 1 < CRASH_RETRIES:
            before_retry()
    return result, crashed_s
