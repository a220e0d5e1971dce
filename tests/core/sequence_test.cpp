// Lemma 13: lower-bound chains, their certification, and the Omega(log
// Delta) growth of their length.
#include "core/sequence.hpp"

#include <gtest/gtest.h>

namespace relb::core {
namespace {

using re::Count;

TEST(Chain, PaperScheduleMatchesLemma13) {
  const Chain chain = paperChain(1 << 12, 1);
  ASSERT_GE(chain.steps.size(), 2u);
  EXPECT_EQ(chain.steps[0].a, 1 << 12);
  EXPECT_EQ(chain.steps[0].x, 1);
  EXPECT_EQ(chain.steps[1].a, 1 << 9);  // Delta / 2^3
  EXPECT_EQ(chain.steps[1].x, 2);
  EXPECT_EQ(certifyChain(chain), "");
}

TEST(Chain, ExactChainCertifies) {
  for (Count delta : {Count{8}, Count{64}, Count{1} << 10, Count{1} << 16,
                      Count{1} << 20}) {
    for (Count x0 : {0, 1, 5}) {
      const Chain chain = exactChain(delta, x0);
      EXPECT_EQ(certifyChain(chain), "")
          << "delta=" << delta << " x0=" << x0;
    }
  }
}

TEST(Chain, ExactChainRejectsStartOutsideZeroToDelta) {
  // Pi_Delta(Delta, x0) only exists for 0 <= x0 <= Delta: outside that
  // range exactChain refuses up front instead of returning a chain that
  // fails only later, in certification.
  for (const Count x0 : {Count{-5}, Count{-1}, Count{33}, Count{100}}) {
    EXPECT_THROW((void)exactChain(32, x0), re::Error) << "x0=" << x0;
  }
  try {
    (void)exactChain(32, -5);
  } catch (const re::Error& e) {
    EXPECT_STREQ(e.what(), "exactChain: x0 = -5 outside [0, delta = 32]");
  }
  // Both ends of the range are valid starts.
  EXPECT_EQ(exactChain(32, 0).steps.front().x, 0);
  const Chain top = exactChain(32, 32);
  ASSERT_EQ(top.steps.size(), 1u);
  EXPECT_EQ(top.steps.front().x, 32);
}

TEST(Chain, ExactChainIsAtLeastAsLongAsPaperChain) {
  for (Count delta : {64, 1 << 10, 1 << 16}) {
    EXPECT_GE(exactChain(delta, 0).length(), paperChain(delta, 0).length())
        << "delta=" << delta;
  }
}

TEST(Chain, LengthGrowsLogarithmically) {
  // The chain length must grow by Theta(1) per doubling of Delta (the
  // Omega(log Delta) lower bound shape).
  Count prev = exactChain(1 << 6, 0).length();
  for (int e = 7; e <= 24; ++e) {
    const Count len = exactChain(Count{1} << e, 0).length();
    EXPECT_GE(len, prev);
    EXPECT_LE(len - prev, 2);
    prev = len;
  }
  // Concretely: length ~ (3/4) log2(Delta) for the exact recurrence.
  const Count at20 = exactChain(Count{1} << 20, 0).length();
  EXPECT_GE(at20, 12);
  EXPECT_LE(at20, 20);
}

TEST(Chain, LargerStartingXShortensChain) {
  const Count delta = 1 << 16;
  const Count withSmallK = exactChain(delta, 0).length();
  const Count withLargeK = exactChain(delta, 100).length();
  EXPECT_GT(withSmallK, withLargeK);
  EXPECT_GT(withLargeK, 0);
}

TEST(Chain, CertifierCatchesBadChains) {
  // A chain that jumps to parameters not reachable by Corollary 10 + Lemma
  // 11 must be rejected.
  Chain bogus;
  bogus.delta = 64;
  bogus.steps = {{64, 0}, {60, 1}};  // speedup gives a' = 31, not 60
  EXPECT_NE(certifyChain(bogus), "");

  // A chain whose final problem is 0-round solvable proves nothing.
  Chain trivialEnd;
  trivialEnd.delta = 64;
  trivialEnd.steps = {{64, 64}};  // x = delta -> X^delta allowed
  EXPECT_NE(certifyChain(trivialEnd), "");

  // Violated preconditions (2x+1 > a).
  Chain badPre;
  badPre.delta = 64;
  badPre.steps = {{5, 3}, {1, 4}};
  EXPECT_NE(certifyChain(badPre), "");
}

TEST(Chain, ZeroRoundBoundaryExactlyLemma12) {
  // familyZeroRoundSolvable must match Lemma 12's characterization on the
  // full small parameter grid.
  for (Count delta = 2; delta <= 6; ++delta) {
    for (Count a = 0; a <= delta; ++a) {
      for (Count x = 0; x <= delta; ++x) {
        const bool expected = (a == 0) || (x == delta);
        EXPECT_EQ(familyZeroRoundSolvable(delta, a, x), expected)
            << "delta=" << delta << " a=" << a << " x=" << x;
      }
    }
  }
}

TEST(Chain, PnLowerBoundMonotoneInDelta) {
  Count prev = 0;
  for (int e = 4; e <= 20; e += 2) {
    const Count bound = pnLowerBoundRounds(Count{1} << e, 1);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
  EXPECT_GT(prev, 8);
}

TEST(Chain, PnLowerBoundDecreasesInK) {
  const Count delta = 1 << 14;
  Count prev = pnLowerBoundRounds(delta, 0);
  for (Count k : {1, 4, 16, 64, 256}) {
    const Count bound = pnLowerBoundRounds(delta, k);
    EXPECT_LE(bound, prev);
    prev = bound;
  }
}

}  // namespace
}  // namespace relb::core
