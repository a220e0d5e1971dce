#!/usr/bin/env sh
# Runs the serial-vs-parallel engine benchmarks and writes BENCH_speedup.json
# (google-benchmark JSON) to the repository root, plus an observability
# bundle: BENCH_report.json (the CLI's versioned run report for a reference
# chain certification) and BENCH_trace.json (the matching Chrome trace).
#
# Usage:  bench/run_bench.sh [build-dir] [extra benchmark flags...]
#
#   build-dir   CMake build directory (default: build).  Used only if its
#               cached CMAKE_BUILD_TYPE is Release; anything else (including
#               the repo-default RelWithDebInfo and a missing cache) falls
#               back to a dedicated Release tree in build-bench/, so a
#               pre-existing Debug build can never produce Debug numbers.
#
# Environment:
#   BENCH_OUT   Output path for the benchmark JSON (default:
#               BENCH_speedup.json in the repo root).  CI points this at a
#               scratch file so the committed baseline is never overwritten.
#
# The captured benchmarks are the ones whose second argument is
# StepOptions::numThreads (1 = serial, 0 = one thread per hardware core):
# BM_SpeedupStepFamily, BM_SpeedupStepMis, BM_MaximalEdgePairs (serial
# only: its second argument is always 1) and BM_CertifyChain -- each row
# carries per-iteration registry-counter breakdowns (antichain tests, labels
# produced, ...) -- plus BM_MaximalEdgePairsWorstCase, the serial
# bit-kernel rows BM_DominationFilter / BM_RightClosure / BM_SubsetSweep and
# the tracer overhead rows BM_ScopedSpan* / BM_RegistryCounterAdd and the
# session-layer rows BM_SessionCreate / BM_ConcurrentSessions and the
# service rows BM_ServeRoundTrip / BM_ServeThroughput (the relb-served
# socket front end measured end-to-end over a warm core) and the LOCAL
# simulator rows BM_CsrBuild / BM_CsrBuildParallel / BM_LubyMisRound /
# BM_LocalSimEndToEnd (CSR construction serial and at the default width,
# one full-frontier Luby round at 10^6 / 10^7 nodes, and a whole verified
# 10^7-node MIS -> domset run; the second BM_LubyMisRound and
# BM_LocalSimEndToEnd argument is the thread width) and the cold serial
# automatic-lower-bound rows BM_AutoBoundCold/{two_ruling_set,pi} (a fresh
# session per iteration: speedup steps, merge search, zero-round checks) and
# the per-candidate edge-input verdict rows BM_ZeroRoundEdgeInputs (a MIS
# merge candidate, Pi_Delta at Delta = 8 and 2^20).  On a
# single-core machine numThreads=0 resolves to one lane, so the
# serial/parallel rows coincide up to noise; the serial rows still track the
# kernel and antichain-prune baselines against older revisions.
#
# The JSON context is stamped with the library's actual cached build type
# (library_build_type) and the producing git revision (relb_git_revision);
# tools/check_bench.py refuses baselines/candidates whose stamp is not
# "release".
#
# Note: the bundled google-benchmark expects --benchmark_min_time as a
# plain double (seconds), without a unit suffix.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift

cached_build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$1/CMakeCache.txt" 2>/dev/null || true
}

BUILD_TYPE="$(cached_build_type "$BUILD_DIR")"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "== $BUILD_DIR cached build type is '${BUILD_TYPE:-<none>}', not Release; using build-bench/ =="
  BUILD_DIR="build-bench"
fi

# Configure + build unconditionally (a no-op when up to date), so the
# benchmark binary always matches the working tree.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_perf_engine round_eliminator_cli

BENCH_BIN="$BUILD_DIR/bench/bench_perf_engine"
OUT="${BENCH_OUT:-BENCH_speedup.json}"
"$BENCH_BIN" \
  --benchmark_filter='BM_SpeedupStepFamily|BM_SpeedupStepMis|BM_MaximalEdgePairs|BM_CertifyChain|BM_DominationFilter|BM_RightClosure|BM_SubsetSweep|BM_ScopedSpan|BM_RegistryCounterAdd|BM_SessionCreate|BM_ConcurrentSessions|BM_ServeRoundTrip|BM_ServeThroughput|BM_CsrBuild|BM_LubyMisRound|BM_LocalSimEndToEnd|BM_AutoBoundCold|BM_ZeroRoundEdgeInputs' \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions=1 \
  "$@"

# Stamp the context with the library's real build type and the revision, so
# a benchmark JSON is self-describing about what produced it.
python3 - "$OUT" "$(cached_build_type "$BUILD_DIR")" <<'PYEOF'
import json
import subprocess
import sys

path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    data = json.load(f)
context = data.setdefault("context", {})
context["library_build_type"] = build_type.lower()
try:
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=False).stdout.strip()
except OSError:
    revision = ""
context["relb_git_revision"] = revision
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PYEOF

echo
echo "== wrote $OUT =="

# Attach the observability bundle: one traced, reported chain certification
# through the CLI, so every benchmark drop ships with a phase/counter
# breakdown and a Perfetto-loadable trace of the run that produced it.
CLI_BIN="$BUILD_DIR/examples/round_eliminator_cli"
"$CLI_BIN" --chain 1024 \
  --report BENCH_report.json \
  --trace BENCH_trace.json --trace-format chrome > /dev/null

echo "== wrote BENCH_report.json, BENCH_trace.json =="
