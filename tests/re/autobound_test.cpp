#include "re/autobound.hpp"

#include <gtest/gtest.h>

#include "re/encodings.hpp"
#include "re/engine.hpp"
#include "re/problem.hpp"

namespace relb::re {
namespace {

/// One iteration through a fresh session.
IterationTrace iterate(const Problem& p, const IterateOptions& options = {}) {
  EngineSession session;
  return iterateSpeedup(session, p, options);
}

TEST(IterateSpeedup, SinklessOrientationFindsFixedPoint) {
  const auto trace = iterate(sinklessOrientationProblem(3));
  EXPECT_EQ(trace.reason, StopReason::kFixedPoint);
  ASSERT_TRUE(trace.fixedPointAt.has_value());
  EXPECT_LE(*trace.fixedPointAt, 2);
  // The certificate means Omega(log n): the fixed point itself is hard.
  EXPECT_EQ(trace.last.alphabet.size(), 2);
  EXPECT_NE(trace.describe().find("fixed point"), std::string::npos);
}

TEST(IterateSpeedup, TrivialProblemStopsImmediately) {
  const auto p = Problem::parse("O^3\n", "O O\n");
  const auto trace = iterate(p);
  EXPECT_EQ(trace.reason, StopReason::kZeroRoundSolvable);
  EXPECT_EQ(trace.zeroRoundAfter, 0);
}

TEST(IterateSpeedup, MisHitsLabelBudget) {
  IterateOptions options;
  options.maxLabels = 12;
  options.maxSteps = 6;
  const auto trace = iterate(misProblem(3), options);
  EXPECT_EQ(trace.reason, StopReason::kLabelBudget);
  // Label counts grow monotonically along the recorded trace.
  ASSERT_GE(trace.steps.size(), 3u);
  EXPECT_EQ(trace.steps[0].labels, 3);
  EXPECT_GT(trace.steps.back().labels, 12);
  EXPECT_NE(trace.describe().find("doubly exponential"), std::string::npos);
}

TEST(IterateSpeedup, StepLimitRespected) {
  IterateOptions options;
  options.maxSteps = 1;
  options.maxLabels = 100;  // don't stop for labels
  options.detectFixedPoint = false;
  const auto trace = iterate(misProblem(3), options);
  EXPECT_EQ(trace.reason, StopReason::kStepLimit);
  EXPECT_EQ(trace.steps.size(), 2u);
}

TEST(IterateSpeedup, TwoColoringOfCycleIsHard) {
  // 2-coloring a cycle (Delta = 2) is a global problem; the iteration must
  // never report it 0-round solvable, and in fact it reaches a fixed point
  // (the classic Omega(n)-hard problems are fixed-point-like under
  // speedup; on cycles anything not o(log* n) shows up as non-trivial).
  const auto trace = iterate(cColoringProblem(2, 2));
  EXPECT_NE(trace.reason, StopReason::kZeroRoundSolvable);
}

TEST(IterateSpeedup, ThreeColoringOfCycleBecomesSolvable) {
  // 3-coloring a cycle is O(log* n): a few speedup steps reach a 0-round
  // solvable problem only if log*-many are taken -- within a small budget
  // the iteration should NOT certify an upper bound, and labels stay
  // moderate.  (This documents that the engine distinguishes the log* regime
  // from the O(1) regime.)
  IterateOptions options;
  options.maxSteps = 3;
  options.maxLabels = 40;
  const auto trace = iterate(cColoringProblem(2, 3), options);
  if (trace.reason == StopReason::kZeroRoundSolvable) {
    // Permitted only after at least one step (it is not 0-round solvable).
    EXPECT_GE(*trace.zeroRoundAfter, 1);
  }
}

TEST(IterateSpeedup, FamilyMemberSurvivesSteps) {
  // Pi_Delta(a,x) under the *raw* speedup (no edge-coloring trick): labels
  // grow, the engine eventually stops -- the observable that motivates the
  // paper's Lemma 9 construction.
  const auto p = Problem::parse("M^3\nA^2 X\nP O^2\n",
                                "M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\n"
                                "X [MPAOX]\n");
  IterateOptions options;
  options.maxSteps = 3;
  options.maxLabels = 10;
  const auto trace = iterate(p, options);
  EXPECT_TRUE(trace.reason == StopReason::kLabelBudget ||
              trace.reason == StopReason::kEngineLimit ||
              trace.reason == StopReason::kStepLimit);
}

}  // namespace
}  // namespace relb::re
