// End-to-end tests of the paper's explicit conversions (Lemmas 5, 9, 11) on
// concrete trees, verified with the generic LCL checker.
#include "core/conversions.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/sequence.hpp"
#include "local/upper_bounds.hpp"
#include "local/verify.hpp"
#include "support/graphs.hpp"

namespace relb::core {
namespace {

using local::CsrGraph;
using local::HalfEdgeLabeling;
using re::Count;
using testsupport::completeTree;

// A greedy k-outdegree dominating set for testing Lemma 5: greedy MIS is a
// 0-outdegree dominating set, which is also valid for every k >= 0.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>> greedyMisAsDs(
    const CsrGraph& g) {
  return {local::greedyMis(g), std::vector<std::uint8_t>(g.numHalfEdges(), 0)};
}

TEST(Lemma5, ProducesValidFamilySolutionOnRegularTree) {
  for (const std::uint32_t delta : {3u, 4u, 5u}) {
    const CsrGraph g = completeTree(delta, 3);
    const auto [inSet, outgoing] = greedyMisAsDs(g);
    for (Count k : {0, 1, 2}) {
      const auto labeling = lemma5Labeling(g, inSet, outgoing, k);
      const auto pi = familyProblem(delta, delta, k);
      const auto check = local::checkLabeling(g, pi, labeling);
      EXPECT_TRUE(check.ok())
          << "delta=" << delta << " k=" << k << ": "
          << (check.messages.empty() ? "" : check.messages.front());
    }
  }
}

TEST(Lemma5, RejectsInvalidDominatingSet) {
  const CsrGraph g = completeTree(3, 2);
  const std::vector<std::uint8_t> empty(g.numNodes(), 0);
  const std::vector<std::uint8_t> outgoing(g.numHalfEdges(), 0);
  EXPECT_THROW((void)lemma5Labeling(g, empty, outgoing, 0), re::Error);
}

TEST(Lemma5, WorksWithNonzeroOutdegrees) {
  // Take ALL nodes into the set and orient edges by BFS layer (towards the
  // root): outdegree <= 1, a valid 1-outdegree dominating set.
  const CsrGraph g = completeTree(3, 3);
  const std::vector<std::uint8_t> all(g.numNodes(), 1);
  // Orient child-to-parent: port 0 of every non-root node is its parent.
  std::vector<std::uint8_t> outgoing(g.numHalfEdges(), 0);
  for (local::Vertex v = 1; v < g.numNodes(); ++v) {
    outgoing[g.halfEdge(v, 0)] = 1;
  }
  ASSERT_TRUE(local::csrIsKOutdegreeDominatingSet(g, all, outgoing, 1, 1));
  const auto labeling = lemma5Labeling(g, all, outgoing, 1);
  const auto check =
      local::checkLabeling(g, familyProblem(3, 3, 1), labeling);
  EXPECT_TRUE(check.ok())
      << (check.messages.empty() ? "" : check.messages.front());
}

struct ConvParams {
  std::uint32_t delta;
  Count a;
  Count x;
};

class Lemma9Sweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(Lemma9Sweep, AlternatingSyntheticSolutionConverts) {
  const auto [delta, a, x] = GetParam();
  const CsrGraph g = completeTree(delta, 4);
  const auto colors = local::treeEdgeColoring(g);
  ASSERT_TRUE(local::isProperEdgeColoring(g, colors, delta));
  const auto plus = syntheticPlusLabelingAlternating(g, a, x);
  // Input must solve Pi+.
  const auto plusCheck =
      local::checkLabeling(g, familyPlusProblem(delta, a, x), plus);
  ASSERT_TRUE(plusCheck.ok())
      << (plusCheck.messages.empty() ? "" : plusCheck.messages.front());
  // The conversion must solve Pi(floor((a-2x-1)/2), x+1).
  const auto converted = lemma9Convert(g, colors, plus, a, x);
  const Count aNew = (a - 2 * x - 1) / 2;
  const auto check =
      local::checkLabeling(g, familyProblem(delta, aNew, x + 1), converted);
  EXPECT_TRUE(check.ok())
      << (check.messages.empty() ? "" : check.messages.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma9Sweep,
    ::testing::Values(ConvParams{4, 3, 1}, ConvParams{4, 4, 1},
                      ConvParams{5, 5, 1}, ConvParams{5, 5, 2},
                      ConvParams{6, 5, 1}, ConvParams{6, 6, 2},
                      ConvParams{7, 7, 2}, ConvParams{8, 7, 3},
                      ConvParams{8, 8, 1}, ConvParams{10, 9, 2}),
    [](const ::testing::TestParamInfo<ConvParams>& info) {
      return "d" + std::to_string(info.param.delta) + "a" +
             std::to_string(info.param.a) + "x" +
             std::to_string(info.param.x);
    });

TEST(Lemma9, FullPipelineFromDominatingSet) {
  // k-outdegree DS --Lemma5--> Pi(delta, a, x) --embed--> Pi+(a, x)
  // --Lemma9--> Pi(a', x+1): the complete one-step speedup realized on a
  // concrete tree.
  const Count delta = 6, a = 6, x = 0;
  const CsrGraph g = completeTree(6, 3);
  const auto [inSet, outgoing] = greedyMisAsDs(g);
  const auto base = lemma5Labeling(g, inSet, outgoing, x);
  ASSERT_TRUE(local::checkLabeling(g, familyProblem(delta, a, x), base).ok());
  const auto plus = plusFromFamilyLabeling(g, base, a, x);
  ASSERT_TRUE(
      local::checkLabeling(g, familyPlusProblem(delta, a, x), plus).ok());
  const auto converted =
      lemma9Convert(g, local::treeEdgeColoring(g), plus, a, x);
  const Count aNew = (a - 2 * x - 1) / 2;
  const auto check =
      local::checkLabeling(g, familyProblem(delta, aNew, x + 1), converted);
  EXPECT_TRUE(check.ok())
      << (check.messages.empty() ? "" : check.messages.front());
}

TEST(Lemma9, RequiresEdgeColoring) {
  const CsrGraph g = testsupport::pathGraph(3);
  const HalfEdgeLabeling dummy(g.numHalfEdges());
  EXPECT_THROW((void)lemma9Convert(g, {}, dummy, 3, 1), re::Error);
}

TEST(Lemma9, RequiresParameterRange) {
  const CsrGraph g = completeTree(3, 2);
  const HalfEdgeLabeling dummy(g.numHalfEdges());
  EXPECT_THROW((void)lemma9Convert(g, local::treeEdgeColoring(g), dummy, 2, 1),
               re::Error);  // 2x+1 > a
}

TEST(Lemma11, RelaxationStaysValid) {
  const Count delta = 5;
  const CsrGraph g = completeTree(5, 3);
  const auto [inSet, outgoing] = greedyMisAsDs(g);
  const auto base = lemma5Labeling(g, inSet, outgoing, 0);
  ASSERT_TRUE(
      local::checkLabeling(g, familyProblem(delta, delta, 0), base).ok());
  for (Count aTo : {5, 3, 1}) {
    for (Count xTo : {0, 1, 2}) {
      const auto relaxed = lemma11Relax(g, base, delta, 0, aTo, xTo);
      const auto check =
          local::checkLabeling(g, familyProblem(delta, aTo, xTo), relaxed);
      EXPECT_TRUE(check.ok()) << "aTo=" << aTo << " xTo=" << xTo;
    }
  }
}

TEST(Lemma11, RejectsWrongDirection) {
  const CsrGraph g = completeTree(3, 2);
  const HalfEdgeLabeling dummy(g.numHalfEdges());
  EXPECT_THROW((void)lemma11Relax(g, dummy, 2, 1, 3, 1),
               re::Error);  // aTo > aFrom
  EXPECT_THROW((void)lemma11Relax(g, dummy, 2, 1, 2, 0),
               re::Error);  // xTo < xFrom
}

TEST(Conversions, FailureInjectionCheckerCatchesCorruption) {
  // Corrupt a valid labeling and confirm the checker rejects it -- the
  // verification in the other tests is not vacuous.
  const CsrGraph g = completeTree(4, 3);
  const auto [inSet, outgoing] = greedyMisAsDs(g);
  auto labeling = lemma5Labeling(g, inSet, outgoing, 0);
  const auto pi = familyProblem(4, 4, 0);
  ASSERT_TRUE(local::checkLabeling(g, pi, labeling).ok());
  // Make both endpoints of the edge 0-1 claim M: MM is forbidden.
  labeling[g.halfEdge(0, g.portOf(0, 1))] = kM;
  labeling[g.halfEdge(1, g.portOf(1, 0))] = kM;
  const auto check = local::checkLabeling(g, pi, labeling);
  EXPECT_FALSE(check.ok());
  EXPECT_GT(check.edgeViolations, 0);
}

}  // namespace
}  // namespace relb::core
