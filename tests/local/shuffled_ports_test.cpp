// Port-numbering adversary: every algorithm and conversion must survive a
// random permutation of each node's port order (the PN model gives the
// adversary exactly this power).  The permutation comes from shuffling the
// edge list the tree is built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/conversions.hpp"
#include "local/halfedge.hpp"
#include "local/kernels.hpp"
#include "local/upper_bounds.hpp"
#include "local/verify.hpp"
#include "support/env_seed.hpp"
#include "support/graphs.hpp"

namespace relb {
namespace {

using local::CsrGraph;
using local::Family;
using testsupport::familyParents;
using testsupport::shuffledTree;

class ShuffledPorts : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShuffledPorts, AlgorithmsSurvive) {
  const unsigned seed = testsupport::effectiveSeed(GetParam());
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  const CsrGraph g = shuffledTree(
      familyParents(Family::kBoundedDegreeTree, 150, 6, seed), rng);

  const auto luby = local::lubyMis(g, seed, 1);
  EXPECT_TRUE(local::csrIsMaximalIndependentSet(g, luby.state, 1));

  const auto det = local::misFromColoring(g);
  EXPECT_TRUE(local::csrIsKDegreeDominatingSet(g, det.inSet, 0, 1));

  const auto ds = local::kOutdegreeDominatingSet(g, 2);
  EXPECT_TRUE(
      local::csrIsKOutdegreeDominatingSet(g, ds.inSet, ds.outgoing, 2, 1));
}

TEST_P(ShuffledPorts, ConversionsSurvive) {
  const unsigned seed = testsupport::effectiveSeed(GetParam() + 100);
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  const re::Count delta = 5, a = 5, x = 1;
  const auto parents = familyParents(
      Family::kCompleteTree, local::completeTreeNodes(5, 3), delta);
  // The tree's Delta-edge coloring, carried over to the shuffled ports: the
  // edge to a child has the color of the child's parent port.
  const CsrGraph tree = testsupport::treeOf(parents);
  const auto treeColors = local::treeEdgeColoring(tree);
  const CsrGraph g = shuffledTree(parents, rng);
  std::vector<std::uint32_t> colors(g.numHalfEdges());
  for (local::Vertex v = 0; v < g.numNodes(); ++v) {
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const local::Vertex child = std::max(v, g.neighbors(v)[p]);
      colors[g.halfEdge(v, p)] = treeColors[tree.halfEdge(child, 0)];
    }
  }
  ASSERT_TRUE(local::isProperEdgeColoring(g, colors, 5));

  const auto plus = core::syntheticPlusLabelingAlternating(g, a, x);
  ASSERT_TRUE(
      local::checkLabeling(g, core::familyPlusProblem(delta, a, x), plus)
          .ok());
  const auto converted = core::lemma9Convert(g, colors, plus, a, x);
  const re::Count aNew = (a - 2 * x - 1) / 2;
  EXPECT_TRUE(local::checkLabeling(
                  g, core::familyProblem(delta, aNew, x + 1), converted)
                  .ok());
}

TEST_P(ShuffledPorts, CheckerIndependentOfPortOrder) {
  // A valid labeling stays valid if we *relabel consistently* after a
  // shuffle: build the labeling after shuffling.
  const unsigned seed = testsupport::effectiveSeed(GetParam() + 200);
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  const CsrGraph g = shuffledTree(
      familyParents(Family::kCompleteTree, local::completeTreeNodes(4, 3), 4),
      rng);
  const auto inSet = local::greedyMis(g);
  const std::vector<std::uint8_t> outgoing(g.numHalfEdges(), 0);
  const auto labeling = core::lemma5Labeling(g, inSet, outgoing, 0);
  EXPECT_TRUE(
      local::checkLabeling(g, core::familyProblem(4, 4, 0), labeling).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledPorts, ::testing::Range(1u, 9u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace relb
