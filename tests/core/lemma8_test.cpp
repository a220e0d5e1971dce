// Machine checks of Lemma 8: exact (full Rbar(R(Pi)) computation) for small
// Delta, proof-script (symbolic) for arbitrary Delta, and cross-validation
// between the two.
#include "core/lemma8.hpp"

#include <gtest/gtest.h>

#include "re/relax.hpp"
#include "re/rename.hpp"
#include "re/zero_round.hpp"

namespace relb::core {
namespace {

using re::Count;

struct Params {
  Count delta;
  Count a;
  Count x;
};

class Lemma8ExactSweep : public ::testing::TestWithParam<Params> {};

TEST_P(Lemma8ExactSweep, ExactAndSymbolicAgree) {
  const auto [delta, a, x] = GetParam();
  const auto exact = verifyLemma8Exact(delta, a, x);
  EXPECT_TRUE(exact.ok) << exact.detail;
  const auto symbolic = verifyLemma8Symbolic(delta, a, x);
  EXPECT_TRUE(symbolic.ok) << symbolic.detail;
}

INSTANTIATE_TEST_SUITE_P(
    SmallDeltas, Lemma8ExactSweep,
    ::testing::Values(Params{2, 2, 0}, Params{3, 2, 0}, Params{3, 3, 0},
                      Params{3, 3, 1}, Params{4, 2, 0}, Params{4, 3, 1},
                      Params{4, 4, 0}, Params{4, 4, 2}, Params{5, 3, 0},
                      Params{5, 4, 1}, Params{5, 5, 3}, Params{6, 4, 1},
                      Params{6, 5, 2}, Params{6, 6, 0}, Params{6, 6, 4},
                      Params{7, 4, 1}, Params{7, 5, 2}, Params{7, 7, 0},
                      Params{7, 7, 5}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "d" + std::to_string(info.param.delta) + "a" +
             std::to_string(info.param.a) + "x" +
             std::to_string(info.param.x);
    });

class Lemma8SymbolicSweep : public ::testing::TestWithParam<Params> {};

TEST_P(Lemma8SymbolicSweep, Verifies) {
  const auto [delta, a, x] = GetParam();
  const auto result = verifyLemma8Symbolic(delta, a, x);
  EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    LargeDeltas, Lemma8SymbolicSweep,
    ::testing::Values(Params{64, 32, 3}, Params{1 << 10, 1 << 7, 11},
                      Params{1 << 16, 1 << 12, 63},
                      Params{Count{1} << 30, Count{1} << 25, 999},
                      Params{Count{1} << 40, Count{1} << 20, 12345}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "d" + std::to_string(info.param.delta) + "a" +
             std::to_string(info.param.a) + "x" +
             std::to_string(info.param.x);
    });

TEST(Lemma8, RejectsParametersOutsideLemma) {
  EXPECT_FALSE(verifyLemma8Symbolic(4, 1, 0).ok);
  EXPECT_FALSE(verifyLemma8Symbolic(4, 3, 2).ok);
}

TEST(Lemma8, RelProblemIsFamilyPlusUpToRenaming) {
  // The renamed Pi_rel and Pi+ are literally the same problem here (the fix
  // point of the check), via the identity renaming.
  for (const auto& [delta, a, x] :
       std::vector<std::array<Count, 3>>{{4, 3, 1}, {6, 5, 2}, {9, 7, 1}}) {
    const auto rel = relProblemRenamed(delta, a, x);
    const auto plus = familyPlusProblem(delta, a, x);
    EXPECT_TRUE(re::equivalentUpToRenaming(rel, plus))
        << "delta=" << delta << " a=" << a << " x=" << x;
  }
}

TEST(Lemma8, PlusIsNotZeroRoundSolvable) {
  // The chain argument needs the intermediate problems to stay hard.
  EXPECT_FALSE(
      re::zeroRoundSolvableSymmetricPorts(familyPlusProblem(5, 4, 1)));
}

TEST(Lemma8, PlusRelabelsToNextFamilyProblemDirectlyFails) {
  // Ablation (Section 1.2): without the edge-coloring trick there is no
  // per-label relabeling from Pi+(a,x) into Pi(a', x+1) -- the label C has
  // no valid image (C cannot become A everywhere: AA edges may appear; nor
  // X everywhere: the node configuration C^{Delta-x} X^x would become
  // X^Delta which is not allowed).  This is exactly why the paper needs the
  // Delta-edge coloring.
  const Count delta = 6, a = 5, x = 1;
  const auto plus = familyPlusProblem(delta, a, x);
  // No per-label relabeling reaches *any* non-trivial family member at
  // x+1, whatever the target ownership parameter a'' and whatever each of
  // the six labels maps to.
  for (Count aTarget = 1; aTarget <= delta; ++aTarget) {
    const auto next = familyProblem(delta, aTarget, x + 1);
    std::vector<re::Label> map(6, 0);
    bool anyWorks = false;
    // All 5^6 label maps.
    for (int code = 0; code < 5 * 5 * 5 * 5 * 5 * 5 && !anyWorks; ++code) {
      int c = code;
      for (int i = 0; i < 6; ++i) {
        map[static_cast<std::size_t>(i)] = static_cast<re::Label>(c % 5);
        c /= 5;
      }
      if (re::isZeroRoundRelabeling(plus, next, map)) anyWorks = true;
    }
    EXPECT_FALSE(anyWorks) << "aTarget=" << aTarget;
  }
}

TEST(Lemma8, RelSetsAreRightClosedInFigure5) {
  // Each of the six Pi_rel sets must be right-closed w.r.t. the node
  // diagram of R(Pi), otherwise the relaxation targets would be unusable.
  const auto rProblem = claimedRFamily(6, 5, 1);
  const auto rel = re::computeStrengthScalable(rProblem.node, 8);
  for (const auto& s : relSets()) {
    EXPECT_TRUE(rel.isRightClosed(s));
  }
}

TEST(Lemma8, ForbiddenFactsAreTight) {
  // f2 says A^{x+1} U^{Delta-a+1} B^{a-x-2} is not a word of N_{R(Pi)};
  // check the neighboring word with one fewer U *is* present, i.e. the
  // forbidden fact is tight and the checker is not rejecting everything.
  const Count delta = 8, a = 6, x = 1;
  const auto rProblem = claimedRFamily(delta, a, x);
  re::Word w(8, 0);
  w[kRA] = x + 1;
  w[kRU] = delta - a;     // one fewer than the forbidden count
  w[kRB] = a - x - 1;     // filler adjusted
  EXPECT_TRUE(rProblem.node.containsWord(w));
  w[kRU] += 1;
  w[kRB] -= 1;
  EXPECT_FALSE(rProblem.node.containsWord(w));
}

}  // namespace
}  // namespace relb::core
