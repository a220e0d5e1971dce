#include "re/simplify.hpp"

#include <gtest/gtest.h>

#include "re/encodings.hpp"
#include "re/relax.hpp"
#include "re/zero_round.hpp"

namespace relb::re {
namespace {

TEST(MergeLabels, ImageIsZeroRoundReachable) {
  // Merging P and O in MIS: the identity-ish map into the merged problem is
  // a valid 0-round relabeling by construction.
  const auto mis = misProblem(3);
  const auto merged = mergeTwoLabels(mis, mis.alphabet.at("P"),
                                     mis.alphabet.at("O"));
  EXPECT_EQ(merged.alphabet.size(), 2);
  // map: M -> M, P -> P, O -> P (the merged label keeps the first name).
  const std::vector<Label> map{merged.alphabet.at("M"),
                               merged.alphabet.at("P"),
                               merged.alphabet.at("P")};
  EXPECT_TRUE(isZeroRoundRelabeling(mis, merged, map));
}

TEST(MergeLabels, MergedMisBecomesEasy) {
  // MIS with P = O collapses to "dominating set with pointer soup", which
  // is still not 0-round solvable (M incompatible with M, merged label
  // incompatible with itself? check what the analyzer says) -- the point of
  // the test is just consistency, so compare against the analyzer.
  const auto mis = misProblem(3);
  const auto merged = mergeTwoLabels(mis, mis.alphabet.at("P"),
                                     mis.alphabet.at("O"));
  // PO merged: edge constraint now allows [PO][PO] via OO, so the merged
  // label is self-compatible; configuration P' O'^2 = P'^3 exists => the
  // problem is 0-round solvable (everyone claims "pointer").
  EXPECT_TRUE(zeroRoundSolvableWithEdgeInputs(merged));
}

TEST(MergeLabels, HugeExponentsNeedNoEnumeration) {
  // Merging D into C turns B^N [AD]^N into B^N [AC]^N, whose words all lie
  // in [AB]^N [BC]^N although no groupwise embedding exists.  The dominated
  // configuration must be dropped at N = 2^40 without enumerating words.
  constexpr Count kN = Count{1} << 40;
  Problem p;
  p.alphabet = Alphabet({"A", "B", "C", "D"});
  p.node = Constraint(
      2 * kN, {Configuration({{LabelSet{0, 1}, kN}, {LabelSet{1, 2}, kN}}),
               Configuration({{LabelSet{1}, kN}, {LabelSet{0, 3}, kN}})});
  p.edge = Constraint(2, {Configuration({{LabelSet{0, 1, 2, 3}, 2}})});
  p.validate();
  Problem merged;
  ASSERT_NO_THROW(merged = mergeTwoLabels(p, 2, 3));
  ASSERT_EQ(merged.alphabet.size(), 3);
  ASSERT_EQ(merged.node.size(), 1u);
  EXPECT_EQ(merged.node.configurations()[0],
            Configuration({{LabelSet{0, 1}, kN}, {LabelSet{1, 2}, kN}}));
}

TEST(MergeLabels, Validation) {
  const auto mis = misProblem(3);
  EXPECT_THROW(mergeTwoLabels(mis, 0, 0), Error);
  EXPECT_THROW(mergeTwoLabels(mis, 0, 9), Error);
  Alphabet tiny({"A"});
  EXPECT_THROW(mergeLabels(mis, {0, 0}, tiny), Error);       // size mismatch
  EXPECT_THROW(mergeLabels(mis, {0, 0, 3}, tiny), Error);    // out of range
}

TEST(MergeLabels, PreservesDegrees) {
  const auto p = maximalMatchingProblem(4);
  const auto merged = mergeTwoLabels(p, 0, 1);
  EXPECT_EQ(merged.delta(), 4);
  EXPECT_EQ(merged.edge.degree(), 2);
}

TEST(RestrictToLabels, DropsConfigurations) {
  // Restricting MIS to {M, P, O} is the identity; to {P, O} loses M^Delta
  // and the M edge configurations.
  const auto mis = misProblem(3);
  const auto same = restrictToLabels(mis, mis.alphabet.all());
  EXPECT_EQ(same.node.size(), mis.node.size());

  LabelSet po;
  po.insert(mis.alphabet.at("P"));
  po.insert(mis.alphabet.at("O"));
  const auto restricted = restrictToLabels(mis, po);
  EXPECT_EQ(restricted.node.size(), 1u);  // P O^2 only
  EXPECT_EQ(restricted.edge.size(), 1u);  // OO only
}

TEST(RestrictToLabels, ThrowsWhenEmpty) {
  const auto mis = misProblem(3);
  LabelSet mOnly;
  mOnly.insert(mis.alphabet.at("M"));
  // Keeping only M leaves no edge configuration (MM is forbidden).
  EXPECT_THROW(restrictToLabels(mis, mOnly), Error);
}

TEST(RestrictToLabels, SolutionsEmbedIntoOriginal) {
  // Any solution of the restriction is verbatim a solution of the original:
  // the identity relabeling must be a valid 0-round reduction.
  const auto p = bMatchingProblem(4, 2);
  LabelSet keep = p.alphabet.all();
  const auto restricted = restrictToLabels(p, keep);
  std::vector<Label> identity;
  for (int l = 0; l < p.alphabet.size(); ++l) {
    identity.push_back(static_cast<Label>(l));
  }
  EXPECT_TRUE(isZeroRoundRelabeling(restricted, p, identity));
}

}  // namespace
}  // namespace relb::re
