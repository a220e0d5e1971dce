// End-to-end cascade: starting from a real dominating set on a concrete
// tree, walk the speedup chain *on the graph itself* -- embed the
// Pi(a_i, x_i) solution into Pi+(a_i, x_i) (both zero-round moves) and apply
// the Lemma 9 conversion to land in Pi(a_{i+1}, x_{i+1}), repeating until
// the parameters leave the Corollary 10 range.  Every intermediate labeling
// is validated by the generic checker.  This realizes the entire
// lower-bound chain as executable zero-round reductions.
#include <gtest/gtest.h>

#include "core/conversions.hpp"
#include "core/sequence.hpp"
#include "local/upper_bounds.hpp"
#include "support/graphs.hpp"

namespace relb::core {
namespace {

class CascadeTest : public ::testing::TestWithParam<int> {};

TEST_P(CascadeTest, FullChainOnConcreteTree) {
  const int delta = GetParam();
  const auto g = testsupport::completeTree(delta, 2);
  const auto colors = local::treeEdgeColoring(g);
  ASSERT_TRUE(local::isProperEdgeColoring(g, colors, delta));

  // Greedy MIS -> Lemma 5 -> Pi(delta, 0).
  auto labeling = lemma5Labeling(
      g, local::greedyMis(g), std::vector<std::uint8_t>(g.numHalfEdges(), 0),
      0);

  re::Count a = delta;
  re::Count x = 0;
  ASSERT_TRUE(
      local::checkLabeling(g, familyProblem(delta, a, x), labeling).ok());

  int conversions = 0;
  while (2 * x + 1 <= a && x + 1 <= a && x + 1 <= delta) {
    // Zero-round embed Pi(a, x) -> Pi+(a, x).
    const auto plus = plusFromFamilyLabeling(g, labeling, a, x);
    const auto plusCheck =
        local::checkLabeling(g, familyPlusProblem(delta, a, x), plus);
    ASSERT_TRUE(plusCheck.ok())
        << "step " << conversions << " plus: "
        << (plusCheck.messages.empty() ? "" : plusCheck.messages.front());
    // Zero-round Lemma 9 conversion.
    labeling = lemma9Convert(g, colors, plus, a, x);
    const FamilyParams next = speedupParams({delta, a, x});
    a = next.a;
    x = next.x;
    const auto check =
        local::checkLabeling(g, familyProblem(delta, a, x), labeling);
    ASSERT_TRUE(check.ok())
        << "step " << conversions << " target (a=" << a << ", x=" << x
        << "): " << (check.messages.empty() ? "" : check.messages.front());
    ++conversions;
    if (a < 1) break;
  }
  // The number of conversions realized on the graph matches the abstract
  // chain length (up to the final boundary step, where the abstract chain
  // stops early to keep the last problem hard).
  const Chain chain = exactChain(delta, 0);
  EXPECT_GE(conversions, chain.length());
  EXPECT_GT(conversions, 0);
}

INSTANTIATE_TEST_SUITE_P(Deltas, CascadeTest,
                         ::testing::Values(3, 4, 6, 8, 12, 16, 24, 32),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "delta" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace relb::core
