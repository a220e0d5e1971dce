// Warm-store runs through the driver recompute nothing: a store written
// before refusal and autobound entries existed (tests/data/store_v1_mis3,
// written by the CLI as `round_eliminator_cli "M^3; P O^2" "M [P O]; O O" 1
// --store DIR`) still answers every lookup it holds, a run whose speedup
// steps trip an engine guard replays the refusals from the store on
// --resume, and a family derivation's warm run reads its automatic lower
// bound from the store instead of searching, with output byte-identical to
// the cold run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "driver/driver.hpp"

namespace relb::driver {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

RunRequest problemRequest(const char* node, const char* edge, int maxSteps) {
  RunRequest request;
  request.mode = RunRequest::Mode::kProblem;
  request.nodeSpec = node;
  request.edgeSpec = edge;
  request.maxSteps = maxSteps;
  request.numThreads = 1;
  return request;
}

void expectRecomputedNothing(const re::CacheStats& s, const char* what) {
  EXPECT_EQ(s.stepMisses, 0u) << what;
  EXPECT_EQ(s.zeroRoundMisses, 0u) << what;
  EXPECT_EQ(s.autoboundMisses, 0u) << what;
  EXPECT_EQ(s.storeMisses, 0u) << what;
  EXPECT_EQ(s.storeWrites, 0u) << what;
}

TEST(WarmStore, StoreWithoutRefusalEntriesStillLoadsWithAllHits) {
  const fs::path dir = freshDir("store-v1-mis3");
  fs::copy(fs::path(RELB_TEST_DATA_DIR) / "store_v1_mis3", dir,
           fs::copy_options::recursive);
  RunRequest request = problemRequest("M^3\nP O^2", "M [P O]\nO O", 1);
  request.storeDir = dir.string();
  request.resume = true;
  const RunResult warm = run(request);
  ASSERT_EQ(warm.status, RunStatus::kOk) << warm.diagnostics;
  // Every entry the v1 store holds is a hit.  It has no autobound entry,
  // so the bound is one store miss -- the search then runs over memo and
  // store hits -- and one write.
  const re::CacheStats& s = warm.sessionStats;
  EXPECT_EQ(s.stepMisses, 0u);
  EXPECT_EQ(s.zeroRoundMisses, 0u);
  EXPECT_EQ(s.storeHits, 4u);
  EXPECT_EQ(s.storeMisses, 1u);
  EXPECT_EQ(s.storeWrites, 1u);
  EXPECT_EQ(s.autoboundMisses, 1u);

  const RunResult again = run(request);
  ASSERT_EQ(again.status, RunStatus::kOk) << again.diagnostics;
  expectRecomputedNothing(again.sessionStats, "v1 store, bound written");
  EXPECT_EQ(again.output, warm.output);
}

TEST(WarmStore, RefusedStepsReplayFromTheStore) {
  // Maximal matching, 3 steps: the third R-bar trips the packed-word guard
  // in the iteration.
  const fs::path dir = freshDir("store-refusals");
  RunRequest request = problemRequest("M O^2\nP^3", "M^2\nO [O P]", 3);
  request.storeDir = dir.string();
  const RunResult cold = run(request);
  ASSERT_EQ(cold.status, RunStatus::kOk) << cold.diagnostics;
  ASSERT_NE(cold.output.find("exact engine guard"), std::string::npos)
      << cold.output;
  EXPECT_GT(cold.sessionStats.stepMisses, 0u);

  request.resume = true;
  const RunResult warm = run(request);
  ASSERT_EQ(warm.status, RunStatus::kOk) << warm.diagnostics;
  expectRecomputedNothing(warm.sessionStats, "refusal replay");
  EXPECT_EQ(warm.output, cold.output);
}

TEST(WarmStore, FamilyBoundIsReadFromTheStore) {
  // The 2-ruling-set family (arXiv 2004.08282): its merge search trips the
  // zero-round analyzer's guard hundreds of times.  Warm, the bound is one
  // store hit and the search does not run.
  const fs::path dir = freshDir("store-two-ruling-set");
  RunRequest request;
  request.mode = RunRequest::Mode::kFamily;
  request.familyName = "two_ruling_set";
  request.numThreads = 1;
  request.captureCert = true;
  request.storeDir = dir.string();
  const RunResult cold = run(request);
  ASSERT_EQ(cold.status, RunStatus::kOk) << cold.diagnostics;
  EXPECT_EQ(cold.sessionStats.autoboundMisses, 1u);
  ASSERT_FALSE(cold.certificateBytes.empty());

  request.resume = true;
  const RunResult warm = run(request);
  ASSERT_EQ(warm.status, RunStatus::kOk) << warm.diagnostics;
  expectRecomputedNothing(warm.sessionStats, "two_ruling_set");
  EXPECT_LE(warm.sessionStats.storeHits, 10u);
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.certificateBytes, cold.certificateBytes);
}

}  // namespace
}  // namespace relb::driver
