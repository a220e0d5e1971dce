// Determinism and equivalence of the parallel engine: applyRbar and
// speedupStep must produce bit-identical problems (alphabet names, node and
// edge constraints, meaning vectors) for every StepOptions::numThreads, on
// the paper's Pi_Delta(a, x) family and on randomized problems.  applyR
// reads no option, so it is checked across paths instead: the free
// operator, a session's memoized step and the pre-rewrite reference agree.
// Explicit widths are honored beyond the hardware concurrency, so this test
// genuinely multithreads even on a single-core machine (and is the target
// of the TSan CI job).
#include <gtest/gtest.h>

#include <random>

#include "core/family.hpp"
#include "core/sequence.hpp"
#include "prop/reference_step.hpp"
#include "re/engine.hpp"
#include "re/re_step.hpp"

namespace relb::re {
namespace {

constexpr int kWidths[] = {1, 2, 8};

StepOptions withThreads(int numThreads) {
  StepOptions options;
  options.numThreads = numThreads;
  return options;
}

void expectStepResultsEqual(const StepResult& serial,
                            const StepResult& parallel, int numThreads) {
  EXPECT_EQ(serial.problem.alphabet.names(),
            parallel.problem.alphabet.names())
      << "numThreads=" << numThreads;
  EXPECT_EQ(serial.problem.node, parallel.problem.node)
      << "numThreads=" << numThreads;
  EXPECT_EQ(serial.problem.edge, parallel.problem.edge)
      << "numThreads=" << numThreads;
  EXPECT_EQ(serial.meaning, parallel.meaning) << "numThreads=" << numThreads;
}

// R's free operator, a session's memoized step and the reference agree;
// returns the free result.
StepResult checkRPathsAgree(const Problem& p) {
  const StepResult r = applyR(p);
  EngineSession session;
  {
    SCOPED_TRACE("session applyR against the free operator");
    expectStepResultsEqual(r, session.applyR(p), 1);
  }
  {
    SCOPED_TRACE("reference applyR against the free operator");
    expectStepResultsEqual(r, refimpl::applyR(p), 1);
  }
  return r;
}

void checkAllWidthsAgree(const Problem& p) {
  const StepResult r1 = checkRPathsAgree(p);
  const StepResult rbar1 = applyRbar(r1.problem, withThreads(1));
  const Problem sped1 = speedupStep(p, withThreads(1));
  for (const int threads : kWidths) {
    if (threads == 1) continue;
    expectStepResultsEqual(rbar1, applyRbar(r1.problem, withThreads(threads)),
                           threads);
    const Problem sped = speedupStep(p, withThreads(threads));
    EXPECT_EQ(sped1.alphabet.names(), sped.alphabet.names())
        << "numThreads=" << threads;
    EXPECT_EQ(sped1.node, sped.node) << "numThreads=" << threads;
    EXPECT_EQ(sped1.edge, sped.edge) << "numThreads=" << threads;
  }
}

TEST(ParallelStep, FamilyProblemsAgreeAcrossWidths) {
  for (const auto& [delta, a, x] :
       {std::tuple<Count, Count, Count>{3, 2, 0},
        {3, 3, 1},
        {4, 3, 1},
        {4, 4, 0},
        {5, 4, 1},
        {5, 5, 2}}) {
    SCOPED_TRACE("delta=" + std::to_string(delta) + " a=" + std::to_string(a) +
                 " x=" + std::to_string(x));
    checkAllWidthsAgree(core::familyProblem(delta, a, x));
  }
}

TEST(ParallelStep, MisProblemsAgreeAcrossWidths) {
  for (const Count delta : {Count{2}, Count{3}, Count{4}}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    checkAllWidthsAgree(misProblem(delta));
  }
}

// Same generator shape as re_step_random_test.cpp (duplicated for
// independence).
Problem randomProblem(std::mt19937& rng, int alphabetSize, Count delta,
                      int nodeConfigs, double edgeDensity) {
  Problem p;
  for (int i = 0; i < alphabetSize; ++i) {
    p.alphabet.add(std::string(1, static_cast<char>('a' + i)));
  }
  std::uniform_int_distribution<int> setDist(1, (1 << alphabetSize) - 1);
  Constraint node(delta, {});
  for (int i = 0; i < nodeConfigs; ++i) {
    std::vector<Group> groups;
    Count remaining = delta;
    while (remaining > 0) {
      std::uniform_int_distribution<Count> countDist(1, remaining);
      const Count c = countDist(rng);
      groups.push_back(
          {LabelSet(static_cast<std::uint32_t>(setDist(rng))), c});
      remaining -= c;
    }
    node.add(Configuration(std::move(groups)));
  }
  p.node = std::move(node);

  std::bernoulli_distribution coin(edgeDensity);
  Constraint edge(2, {});
  bool any = false;
  for (int a = 0; a < alphabetSize; ++a) {
    for (int b = a; b < alphabetSize; ++b) {
      if (coin(rng)) {
        edge.add(Configuration({{LabelSet{static_cast<Label>(a)}, 1},
                                {LabelSet{static_cast<Label>(b)}, 1}}));
        any = true;
      }
    }
  }
  if (!any) {
    edge.add(Configuration({{LabelSet{0}, 2}}));
  }
  p.edge = std::move(edge);
  p.validate();
  return p;
}

class ParallelRandomStepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelRandomStepTest, RandomProblemsAgreeAcrossWidths) {
  std::mt19937 rng(GetParam());
  const auto p = randomProblem(rng, 4, 3, 3, 0.5);
  const StepResult r1 = checkRPathsAgree(p);
  if (r1.problem.alphabet.size() > 12) return;  // keep Rbar cheap
  // Rbar may legitimately reject (empty after maximization); all widths
  // must then agree on the rejection.
  StepResult rbar1;
  bool rejected = false;
  try {
    rbar1 = applyRbar(r1.problem, withThreads(1));
  } catch (const Error&) {
    rejected = true;
  }
  for (const int threads : kWidths) {
    if (threads == 1) continue;
    try {
      const StepResult rbar = applyRbar(r1.problem, withThreads(threads));
      EXPECT_FALSE(rejected) << "numThreads=" << threads
                             << ": parallel succeeded, serial rejected";
      expectStepResultsEqual(rbar1, rbar, threads);
    } catch (const Error&) {
      EXPECT_TRUE(rejected) << "numThreads=" << threads
                            << ": parallel rejected, serial succeeded";
    }
  }
}

// maximalEdgePairs is serial; on the same problems its closure enumeration
// must agree with the 2^n subset sweep it replaced.
TEST_P(ParallelRandomStepTest, MaximalEdgePairsMatchTheSubsetSweep) {
  std::mt19937 rng(GetParam() + 1000);
  const auto p = randomProblem(rng, 5, 3, 2, 0.4);
  const int n = p.alphabet.size();
  EXPECT_EQ(maximalEdgePairs(p.edge, n),
            refimpl::maximalEdgePairs(refimpl::edgeCompatibility(p.edge, n),
                                      n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomStepTest,
                         ::testing::Range(1u, 16u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ParallelChain, CertifyChainAgreesAcrossWidths) {
  for (const Count delta : {Count{64}, Count{1} << 10, Count{1} << 16}) {
    const auto chain = core::exactChain(delta, 1);
    const std::string serial = core::certifyChain(chain, 1);
    for (const int threads : {2, 8, 0}) {
      EXPECT_EQ(serial, core::certifyChain(chain, threads))
          << "delta=" << delta << " numThreads=" << threads;
    }
  }
}

}  // namespace
}  // namespace relb::re
