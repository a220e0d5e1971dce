// Tests for the automatic lower-bound search (speedup + hardness-preserving
// label merging) and the exact 0-round analysis with edge-port inputs it
// rests on.
#include <gtest/gtest.h>

#include "re/autobound.hpp"
#include "re/cycle_verifier.hpp"
#include "re/encodings.hpp"
#include "re/engine.hpp"
#include "re/tree_verifier.hpp"
#include "re/zero_round.hpp"

namespace relb::re {
namespace {

/// One search through a fresh session.
AutoLowerBound lowerBound(const Problem& p,
                          const AutoLowerBoundOptions& options = {}) {
  return EngineSession().autoLowerBound(p, options);
}

TEST(ZeroRoundWithEdgeInputs, AgreesWithBruteForceOnCycles) {
  for (const auto& p :
       {misProblem(2), sinklessOrientationProblem(2), cColoringProblem(2, 2),
        cColoringProblem(2, 3), maximalMatchingProblem(2),
        Problem::parse("[ZO] [ZO]\n", "Z O\n"),
        Problem::parse("O^2\n", "O O\n")}) {
    EXPECT_EQ(zeroRoundSolvableWithEdgeInputs(p), cycleSolvable(p, 0))
        << p.render();
  }
}

TEST(ZeroRoundWithEdgeInputs, AgreesWithBruteForceOnTrees) {
  for (const auto& p :
       {misProblem(3), sinklessOrientationProblem(3), cColoringProblem(3, 4),
        maximalMatchingProblem(3), Problem::parse("[ZO]^3\n", "Z O\n")}) {
    EXPECT_EQ(zeroRoundSolvableWithEdgeInputs(p), treeSolvable3(p, 0))
        << p.render();
  }
}

TEST(ZeroRoundWithEdgeInputs, StrictlyStrongerThanSideBlindAnalysis) {
  // The side-output problem is solvable only because edge ports are input.
  const auto orient = Problem::parse("[ZO] [ZO]\n", "Z O\n");
  EXPECT_TRUE(zeroRoundSolvableWithEdgeInputs(orient));
  EXPECT_FALSE(zeroRoundSolvableAdversarialPorts(orient));
}

TEST(AutoLowerBound, SinklessOrientationRunsToStepLimit) {
  // SO is a fixed point: the chain never trivializes, so the certificate
  // grows with the step budget (the Omega(log n) behavior, truncated).
  AutoLowerBoundOptions options;
  options.maxSteps = 4;
  const auto lb = lowerBound(sinklessOrientationProblem(3), options);
  EXPECT_EQ(lb.rounds, 4);
  EXPECT_EQ(lb.reason, StopReason::kStepLimit);
  for (const int labels : lb.labelsPerStep) EXPECT_EQ(labels, 2);
}

TEST(AutoLowerBound, MisCertifiesTwoAndThenSticks) {
  // One speedup stays within the label budget (6 labels); the second blows
  // up and no hardness-preserving merge brings it back -- the mechanized
  // version of the paper's observation that the plain similarity approach
  // fails for MIS (Section 1.2).
  AutoLowerBoundOptions options;
  options.maxSteps = 4;
  options.maxLabels = 8;
  const auto lb = lowerBound(misProblem(3), options);
  EXPECT_EQ(lb.rounds, 2);
  EXPECT_EQ(lb.reason, StopReason::kLabelBudget);
  EXPECT_EQ(lb.labelsPerStep, (std::vector<int>{3, 6}));
}

TEST(AutoLowerBound, MatchingMergesAndCertifiesThree) {
  AutoLowerBoundOptions options;
  options.maxSteps = 3;
  options.maxLabels = 8;
  const auto lb = lowerBound(maximalMatchingProblem(3), options);
  EXPECT_GE(lb.rounds, 3);
}

TEST(AutoLowerBound, TrivialProblemCertifiesNothing) {
  const auto p = Problem::parse("O^3\n", "O O\n");
  const auto lb = lowerBound(p);
  EXPECT_EQ(lb.rounds, 0);
  EXPECT_EQ(lb.reason, StopReason::kZeroRoundSolvable);
}

TEST(AutoLowerBound, CertificateConsistentWithBruteForce) {
  // If autoLowerBound certifies T(p) >= 2, the brute-force 1-round solver
  // must agree that p is not solvable in 1 round.
  for (const auto& p : {misProblem(3), maximalMatchingProblem(3)}) {
    AutoLowerBoundOptions options;
    options.maxSteps = 2;
    const auto lb = lowerBound(p, options);
    if (lb.rounds >= 2) {
      try {
        EXPECT_FALSE(treeSolvable3(p, 1, 20'000));
      } catch (const Error&) {
        // undecided within budget is acceptable
      }
    }
  }
}

}  // namespace
}  // namespace relb::re
