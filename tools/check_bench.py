#!/usr/bin/env python3
"""Benchmark regression gate over google-benchmark JSON files.

Compares a candidate run (a fresh ``bench/run_bench.sh`` output) against the
committed baseline trajectory ``BENCH_speedup.json`` and fails when any key
serial row slowed down by more than the tolerance.  Used by the
``bench-regression`` CI job; run it locally the same way:

    bench/run_bench.sh                      # writes BENCH_speedup.json
    BENCH_OUT=/tmp/candidate.json bench/run_bench.sh
    tools/check_bench.py BENCH_speedup.json /tmp/candidate.json

Key rows are the serial (numThreads = 1) engine rows plus the bit-kernel
rows -- the quantities the repo promises not to regress.  The parallel
(numThreads = 0, one lane per core) rows never fail the gate: on shared CI
runners their noise exceeds any plausible regression signal.  Their ratios
are printed for information when both files report the same
``context.num_cpus``; otherwise one line says they were skipped and why (a
"/0" row from a 1-CPU host is a serial measurement, not a scaling one).
Every other row is not compared.

A key row also fails when one of its exact work counters
(``rbar_candidates``, ``rbar_maximal``, ``antichain_tests``; attached by
``CounterScope`` in bench/bench_perf_engine.cpp) differs from the baseline's.
They count work, not time, so equal values show the candidate did the same
work, and a speedup that skips work cannot pass as a faster kernel.

Both files must carry ``context.library_build_type == "release"`` (stamped
by run_bench.sh): comparing Debug numbers against a Release baseline would
make every run fail, and the reverse would hide real regressions.

``--self-test BASELINE`` verifies the gate itself: the baseline must pass
against an identical copy, and must fail against a synthetic candidate whose
key rows are 20% slower, and against one where a single key row's work
counter is off by one.  It also checks that the parallel rows are compared
when the CPU counts match and skipped, without failing the gate, when they
differ.  Exit codes: 0 = pass, 1 = regression (or
self-test failure), 2 = bad input.
"""

import argparse
import copy
import json
import sys

# Benchmarks whose serial rows are gated.  A trailing "/" keeps
# e.g. BM_SpeedupStepMisCached out of BM_SpeedupStepMis's bucket.
KEY_PREFIXES = (
    "BM_SpeedupStepMis/",
    "BM_SpeedupStepFamily/",
    "BM_MaximalEdgePairs/",
    "BM_CertifyChain/",
    "BM_DominationFilter/",
    "BM_RightClosure/",
    "BM_SubsetSweep/",
    "BM_CsrBuild/",
    "BM_LubyMisRound/",
    "BM_AutoBoundCold/",
    "BM_ZeroRoundEdgeInputs/",
)

# Benchmarks where the last argument is StepOptions::numThreads; only their
# "/1" (serial) rows are gated.  The kernel rows have no thread argument and
# are always serial.
THREADED_PREFIXES = (
    "BM_SpeedupStepMis/",
    "BM_SpeedupStepFamily/",
    "BM_MaximalEdgePairs/",
    "BM_CertifyChain/",
    "BM_LubyMisRound/",
)

# Exact per-iteration work counts of the gated rows; a key row whose counter
# differs from the baseline's fails the gate.
WORK_COUNTERS = ("rbar_candidates", "rbar_maximal", "antichain_tests")

TIME_SUFFIXES = ("real_time", "process_time")

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail_usage(message):
    print(f"check_bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"cannot read {path}: {e}")


def require_release(path, data):
    build_type = data.get("context", {}).get("library_build_type", "")
    if build_type != "release":
        fail_usage(
            f"{path}: context.library_build_type is {build_type!r}, not "
            "'release' (regenerate with bench/run_bench.sh)")


def row_time_ns(row):
    """Per-iteration time in nanoseconds; cpu_time unless the row opted into
    real time (UseRealTime rows measure wall time of parallel sections)."""
    field = "real_time" if row["name"].endswith("/real_time") else "cpu_time"
    value = row.get(field, row.get("cpu_time"))
    return float(value) * UNIT_TO_NS.get(row.get("time_unit", "ns"), 1.0)


def iteration_rows(data):
    rows = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        rows[row["name"]] = row
    return rows


def thread_arg(name):
    """The numThreads argument of a threaded row (None for other rows)."""
    if not name.startswith(THREADED_PREFIXES):
        return None
    parts = name.split("/")
    while parts[-1] in TIME_SUFFIXES:  # e.g. .../process_time/real_time
        parts = parts[:-1]
    return parts[-1]


def is_key_row(name):
    if not name.startswith(KEY_PREFIXES):
        return False
    arg = thread_arg(name)
    return arg is None or arg == "1"


def is_parallel_row(name):
    return thread_arg(name) == "0"


def compare(baseline, candidate, tolerance, verbose=True):
    """Returns a list of failure messages (empty = gate passes)."""
    base_rows = iteration_rows(baseline)
    cand_rows = iteration_rows(candidate)
    failures = []
    for name, base_row in sorted(base_rows.items()):
        if not is_key_row(name):
            continue
        cand_row = cand_rows.get(name)
        if cand_row is None:
            failures.append(f"key row missing from candidate: {name}")
            continue
        base_ns = row_time_ns(base_row)
        cand_ns = row_time_ns(cand_row)
        if base_ns <= 0:
            failures.append(f"non-positive baseline time for {name}")
            continue
        ratio = cand_ns / base_ns
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_ns:.0f} ns -> {cand_ns:.0f} ns "
                f"({ratio:.2f}x, tolerance {1.0 + tolerance:.2f}x)")
        for counter in WORK_COUNTERS:
            if counter not in base_row:
                continue
            if cand_row.get(counter) != base_row[counter]:
                verdict = "WORK DIFF"
                failures.append(
                    f"{name}: {counter} {base_row[counter]} -> "
                    f"{cand_row.get(counter)} (work counters must match)")
        if verbose:
            print(f"  {verdict:>10}  {ratio:5.2f}x  {name}")
    return failures


def compare_parallel(baseline, candidate, verbose=True):
    """Prints the informational ratios of the parallel rows when both runs
    saw the same number of CPUs.  Returns (rows compared, skip reason); the
    reason is None unless the rows were skipped."""
    cpus = [data.get("context", {}).get("num_cpus")
            for data in (baseline, candidate)]
    if None in cpus:
        reason = "context.num_cpus is missing"
    elif cpus[0] != cpus[1]:
        reason = (f"the baseline ran on {cpus[0]} CPU(s) and the candidate "
                  f"on {cpus[1]}, so their /0 rows used different lane "
                  "counts")
    else:
        reason = None
    if reason is not None:
        if verbose:
            print(f"parallel rows skipped: {reason}")
        return 0, reason
    if verbose:
        print(f"parallel rows (informational, {cpus[0]} CPU(s) on both):")
    base_rows = iteration_rows(baseline)
    cand_rows = iteration_rows(candidate)
    compared = 0
    for name, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(name)
        if not is_parallel_row(name) or cand_row is None:
            continue
        base_ns = row_time_ns(base_row)
        if base_ns <= 0:
            continue
        compared += 1
        if verbose:
            print(f"  {'info':>10}  {row_time_ns(cand_row) / base_ns:5.2f}x  "
                  f"{name}")
    if verbose and compared == 0:
        print("  (no /0 row is in both files)")
    return compared, None


def self_test_parallel(baseline):
    """Parallel rows: compared when the CPU counts match, skipped (and never
    a gate failure, however slow) when they differ."""
    compared, reason = compare_parallel(baseline, copy.deepcopy(baseline),
                                        verbose=False)
    if reason is not None or compared == 0:
        print("self-test FAILED: identical candidate's parallel rows were "
              f"not compared ({reason or 'no /0 rows'})")
        return 1
    other_host = copy.deepcopy(baseline)
    other_host.setdefault("context", {})["num_cpus"] = (
        baseline.get("context", {}).get("num_cpus", 1) + 1)
    for row in other_host.get("benchmarks", []):
        if is_parallel_row(row["name"]):
            for field in ("real_time", "cpu_time"):
                if field in row:
                    row[field] = float(row[field]) * 10.0
    skipped, reason = compare_parallel(baseline, other_host, verbose=False)
    if reason is None or skipped != 0:
        print("self-test FAILED: parallel rows from a host with a different "
              "CPU count were compared")
        return 1
    if compare(baseline, other_host, 0.0, verbose=False):
        print("self-test FAILED: slower parallel rows failed the gate")
        return 1
    print(f"self-test passed: {compared} parallel rows compared at equal CPU "
          "counts, skipped at different ones")
    return 0


def self_test(baseline, tolerance):
    identical = compare(baseline, copy.deepcopy(baseline), tolerance,
                        verbose=False)
    if identical:
        print("self-test FAILED: identical candidate was rejected:")
        for f in identical:
            print(f"  {f}")
        return 1
    slowed = copy.deepcopy(baseline)
    scale = 1.0 + max(0.20, tolerance + 0.01)
    scaled_rows = 0
    for row in slowed.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        if not is_key_row(row["name"]):
            continue
        for field in ("real_time", "cpu_time"):
            if field in row:
                row[field] = float(row[field]) * scale
        scaled_rows += 1
    if scaled_rows == 0:
        print("self-test FAILED: baseline contains no key rows to scale")
        return 1
    if not compare(baseline, slowed, tolerance, verbose=False):
        print(f"self-test FAILED: {scale:.2f}x-slowed candidate "
              f"({scaled_rows} key rows) was accepted")
        return 1
    print(f"self-test passed: identical candidate accepted, {scale:.2f}x "
          f"slowdown on {scaled_rows} key rows rejected")
    return self_test_work(baseline, tolerance) or self_test_parallel(baseline)


def self_test_work(baseline, tolerance):
    """A candidate as fast as the baseline whose work counter differs on a
    single key row must fail the gate."""
    for index, row in enumerate(baseline.get("benchmarks", [])):
        if row.get("run_type", "iteration") != "iteration":
            continue
        if not is_key_row(row["name"]):
            continue
        counter = next((c for c in WORK_COUNTERS if c in row), None)
        if counter is None:
            continue
        changed = copy.deepcopy(baseline)
        changed["benchmarks"][index][counter] = row[counter] + 1
        if not compare(baseline, changed, tolerance, verbose=False):
            print(f"self-test FAILED: {counter} off by one on {row['name']} "
                  "was accepted")
            return 1
        print(f"self-test passed: {counter} off by one on {row['name']} "
              "rejected")
        return 0
    print("self-test FAILED: baseline has no key row with a work counter")
    return 1


def main():
    parser = argparse.ArgumentParser(
        description="Compare a candidate benchmark JSON against the "
        "committed baseline; fail on key-row regressions.")
    parser.add_argument("baseline", help="committed BENCH_speedup.json")
    parser.add_argument("candidate", nargs="?",
                        help="fresh run to gate (omit with --self-test)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown of key rows "
                        "(default: 0.15)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate accepts the baseline against "
                        "itself and rejects a synthetic 20%% regression")
    args = parser.parse_args()
    if args.tolerance < 0:
        fail_usage("tolerance must be non-negative")

    baseline = load(args.baseline)
    require_release(args.baseline, baseline)
    if args.self_test:
        if args.candidate is not None:
            fail_usage("--self-test takes only the baseline")
        sys.exit(self_test(baseline, args.tolerance))
    if args.candidate is None:
        fail_usage("candidate file required (or pass --self-test)")
    candidate = load(args.candidate)
    require_release(args.candidate, candidate)

    print(f"comparing {args.candidate} against {args.baseline} "
          f"(tolerance {args.tolerance:.2f}):")
    failures = compare(baseline, candidate, args.tolerance)
    print()
    compare_parallel(baseline, candidate)
    if failures:
        print(f"\nFAILED: {len(failures)} key-row regression(s):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("\nbenchmark gate passed")


if __name__ == "__main__":
    main()
