// driver::run and the process-global tracer: a run takes off the sinks it
// attached for --trace/--report and no others, so an embedder's own sink
// (or a concurrent run's) survives any number of runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "driver/driver.hpp"
#include "obs/trace.hpp"

namespace relb::driver {
namespace {

namespace fs = std::filesystem;

RunRequest misRequest() {
  RunRequest request;
  request.mode = RunRequest::Mode::kProblem;
  request.nodeSpec = "M^3; P O^2";
  request.edgeSpec = "M [P O]; O O";
  request.maxSteps = 2;
  return request;
}

TEST(RunSinks, PlainRunKeepsTheEmbeddersSink) {
  obs::Tracer& tracer = obs::Tracer::global();
  const auto ring = std::make_shared<obs::RingBufferSink>(1 << 16);
  tracer.addSink(ring);

  const RunResult result = run(misRequest());
  ASSERT_EQ(result.exitCode(), 0) << result.diagnostics;
  EXPECT_TRUE(tracer.enabled());
  EXPECT_GT(ring->size(), 0u);  // the run's spans reached the sink

  tracer.removeSink(ring.get());
  EXPECT_FALSE(tracer.enabled());
}

TEST(RunSinks, ReportRunTakesOffOnlyItsOwnSink) {
  const fs::path report = fs::path(testing::TempDir()) / "sinks_report.json";
  obs::Tracer& tracer = obs::Tracer::global();
  const auto ring = std::make_shared<obs::RingBufferSink>(1 << 16);
  tracer.addSink(ring);

  RunRequest request = misRequest();
  request.reportPath = report.string();
  const RunResult result = run(request);
  ASSERT_EQ(result.exitCode(), 0) << result.diagnostics;
  EXPECT_TRUE(fs::exists(report));
  EXPECT_TRUE(tracer.enabled());

  // With the embedder's sink gone, nothing is left: the run's span
  // aggregator was taken off on its way out.
  tracer.removeSink(ring.get());
  EXPECT_FALSE(tracer.enabled());
}

}  // namespace
}  // namespace relb::driver
