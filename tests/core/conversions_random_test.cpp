// Lemma 9 and the synthetic generators on *irregular* trees: random trees,
// stars, and brooms have many boundary (non-full-degree) nodes, which the
// conversions must label edge-consistently even where the node constraint
// is vacuous.
#include <gtest/gtest.h>

#include "core/conversions.hpp"
#include "local/upper_bounds.hpp"
#include "support/env_seed.hpp"
#include "support/graphs.hpp"

namespace relb::core {
namespace {

struct RandomConvCase {
  local::Vertex n;
  std::uint32_t maxDegree;
  re::Count a;
  re::Count x;
  unsigned seed;
};

class Lemma9RandomTrees : public ::testing::TestWithParam<RandomConvCase> {};

TEST_P(Lemma9RandomTrees, ConvertsOnIrregularTrees) {
  const auto param = GetParam();
  const unsigned seed = testsupport::effectiveSeed(param.seed);
  const testsupport::TraceSeed trace(seed);
  const auto g = testsupport::randomTree(param.n, param.maxDegree, seed);
  const re::Count delta = param.maxDegree;
  const auto colors = local::treeEdgeColoring(g);
  ASSERT_TRUE(local::isProperEdgeColoring(g, colors, param.maxDegree));

  const auto plus = syntheticPlusLabelingAlternating(g, param.a, param.x);
  const auto plusCheck =
      local::checkLabeling(g, familyPlusProblem(delta, param.a, param.x),
                           plus);
  ASSERT_TRUE(plusCheck.ok())
      << (plusCheck.messages.empty() ? "" : plusCheck.messages.front());

  const auto converted = lemma9Convert(g, colors, plus, param.a, param.x);
  const re::Count aNew = (param.a - 2 * param.x - 1) / 2;
  const auto check = local::checkLabeling(
      g, familyProblem(delta, aNew, param.x + 1), converted);
  EXPECT_TRUE(check.ok())
      << (check.messages.empty() ? "" : check.messages.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma9RandomTrees,
    ::testing::Values(RandomConvCase{60, 5, 5, 1, 1},
                      RandomConvCase{120, 6, 5, 1, 2},
                      RandomConvCase{120, 6, 6, 2, 3},
                      RandomConvCase{200, 8, 7, 2, 4},
                      RandomConvCase{200, 8, 8, 3, 5},
                      RandomConvCase{300, 10, 9, 1, 6},
                      RandomConvCase{80, 4, 3, 1, 7},
                      RandomConvCase{150, 12, 11, 5, 8}),
    [](const ::testing::TestParamInfo<RandomConvCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.maxDegree) + "a" +
             std::to_string(info.param.a) + "x" +
             std::to_string(info.param.x) + "s" +
             std::to_string(info.param.seed);
    });

TEST(Lemma9Pathological, StarAndBroom) {
  for (const local::CsrGraph& g :
       {testsupport::starGraph(9), testsupport::broomGraph(10, 8)}) {
    const re::Count delta = g.maxDegree();
    const re::Count a = delta - 1, x = 1;
    if (2 * x + 1 > a) continue;
    const auto plus = syntheticPlusLabelingAlternating(g, a, x);
    ASSERT_TRUE(
        local::checkLabeling(g, familyPlusProblem(delta, a, x), plus).ok());
    const auto converted =
        lemma9Convert(g, local::treeEdgeColoring(g), plus, a, x);
    const re::Count aNew = (a - 2 * x - 1) / 2;
    EXPECT_TRUE(
        local::checkLabeling(g, familyProblem(delta, aNew, x + 1), converted)
            .ok());
  }
}

TEST(Lemma5Random, WorksOnIrregularTrees) {
  const unsigned seed = testsupport::effectiveSeed(9);
  const testsupport::TraceSeed trace(seed);
  for (unsigned trial = 0; trial < 5; ++trial) {
    const auto g = testsupport::randomTree(100, 6, seed * 5 + trial);
    // Greedy MIS as a 0-outdegree dominating set.
    const auto labeling = lemma5Labeling(
        g, local::greedyMis(g),
        std::vector<std::uint8_t>(g.numHalfEdges(), 0), 0);
    EXPECT_TRUE(
        local::checkLabeling(g, familyProblem(g.maxDegree(), g.maxDegree(), 0),
                             labeling)
            .ok());
  }
}

TEST(Lemma11Random, ChainedRelaxations) {
  // Relax in two hops and in one hop; both must validate.
  const unsigned seed = testsupport::effectiveSeed(4);
  const testsupport::TraceSeed trace(seed);
  const auto g = testsupport::randomTree(80, 5, seed);
  const re::Count delta = 5;
  const auto base = lemma5Labeling(
      g, local::greedyMis(g), std::vector<std::uint8_t>(g.numHalfEdges(), 0),
      0);
  const auto hop1 = lemma11Relax(g, base, delta, 0, 4, 1);
  ASSERT_TRUE(local::checkLabeling(g, familyProblem(delta, 4, 1), hop1).ok());
  const auto hop2 = lemma11Relax(g, hop1, 4, 1, 2, 2);
  EXPECT_TRUE(local::checkLabeling(g, familyProblem(delta, 2, 2), hop2).ok());
  const auto direct = lemma11Relax(g, base, delta, 0, 2, 2);
  EXPECT_TRUE(
      local::checkLabeling(g, familyProblem(delta, 2, 2), direct).ok());
}

}  // namespace
}  // namespace relb::core
