// A run at one lane touches no thread pool: every engine fan-out follows
// the caller's width, so a cold MIS Delta=3 run at `threads` 1 reports
// `pool.batches` 0 in its --report file.  A run at two lanes does fan out,
// which shows the counter is the one the pool really bumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "driver/driver.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace relb::driver {
namespace {

namespace fs = std::filesystem;

// The run report's value of `name`; 0 when the report has no such counter
// (no pool was ever created in this process).
std::uint64_t reportedCounter(const obs::RunReport& report,
                              const std::string& name) {
  for (const auto& [counter, value] : report.counters) {
    if (counter == name) return value;
  }
  return 0;
}

// pool.batches issued by a cold MIS Delta=3 run at `threads` lanes, read
// from its report.  The registry is process-wide, so the value before the
// run is subtracted.
std::uint64_t poolBatchesOfColdMis3(int threads) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("one_lane_" + std::to_string(threads));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t before =
      obs::Registry::global().snapshot().counterValue("pool.batches");

  RunRequest request;
  request.mode = RunRequest::Mode::kProblem;
  request.nodeSpec = "M^3; P O^2";
  request.edgeSpec = "M [P O]; O O";
  request.maxSteps = 3;
  request.numThreads = threads;
  request.storeDir = (dir / "store").string();
  request.reportPath = (dir / "report.json").string();
  const RunResult result = run(request);
  EXPECT_EQ(result.exitCode(), 0) << result.diagnostics;

  const obs::RunReport report = obs::loadRunReport(request.reportPath);
  EXPECT_EQ(report.threads, threads);
  // A real cold run: R computed its maximal edge pairs.
  EXPECT_GT(reportedCounter(report, "re.r.closed_sets"), 0u);
  return reportedCounter(report, "pool.batches") - before;
}

TEST(OneLane, ColdMis3AtOneThreadReportsNoPoolBatches) {
  EXPECT_EQ(poolBatchesOfColdMis3(1), 0u);
}

TEST(OneLane, ColdMis3AtTwoThreadsFansOut) {
  EXPECT_GT(poolBatchesOfColdMis3(2), 0u);
}

}  // namespace
}  // namespace relb::driver
