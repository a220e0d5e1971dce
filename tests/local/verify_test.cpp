#include "local/verify.hpp"

#include <gtest/gtest.h>

#include "re/types.hpp"
#include "support/graphs.hpp"

namespace relb::local {
namespace {

using testsupport::bits;
using testsupport::broomGraph;
using testsupport::pathGraph;
using testsupport::starGraph;

std::vector<MisFlag> flags(const std::vector<std::uint8_t>& inSet) {
  std::vector<MisFlag> state;
  for (const std::uint8_t in : inSet) {
    state.push_back(in != 0 ? MisFlag::kIn : MisFlag::kOut);
  }
  return state;
}

bool isDominating(const CsrGraph& g, const std::vector<std::uint8_t>& s) {
  return csrIsDominatingSet(g, flags(s), 1);
}
bool kDegreeDs(const CsrGraph& g, const std::vector<std::uint8_t>& s, int k) {
  return csrIsKDegreeDominatingSet(g, s, k, 1);
}
bool kOutdegreeDs(const CsrGraph& g, const std::vector<std::uint8_t>& s,
                  const std::vector<std::uint8_t>& outgoing, int k) {
  return csrIsKOutdegreeDominatingSet(g, s, outgoing, k, 1);
}

TEST(Verify, IndependentAndDominating) {
  const CsrGraph g = pathGraph(4);  // 0-1-2-3
  const auto s = bits("0101");
  EXPECT_TRUE(csrIsIndependentSet(g, flags(s), 1));
  EXPECT_TRUE(isDominating(g, s));
  EXPECT_TRUE(csrIsMaximalIndependentSet(g, flags(s), 1));
  EXPECT_TRUE(kDegreeDs(g, s, 0));  // MIS == 0-degree dominating set

  const auto adjacent = bits("1100");
  EXPECT_FALSE(csrIsIndependentSet(g, flags(adjacent), 1));
  EXPECT_EQ(csrInducedMaxDegree(g, adjacent, 1), 1);

  const auto sparse = bits("1000");
  EXPECT_TRUE(csrIsIndependentSet(g, flags(sparse), 1));
  EXPECT_FALSE(isDominating(g, sparse));  // node 2,3 undominated
  EXPECT_FALSE(csrIsMaximalIndependentSet(g, flags(sparse), 1));
  EXPECT_FALSE(kDegreeDs(g, sparse, 0));
}

TEST(Verify, EmptySetOnNonemptyGraphNotDominating) {
  const CsrGraph g = pathGraph(3);
  const auto none = bits("000");
  EXPECT_TRUE(csrIsIndependentSet(g, flags(none), 1));
  EXPECT_FALSE(isDominating(g, none));
  EXPECT_FALSE(kDegreeDs(g, none, 3));
  EXPECT_FALSE(kOutdegreeDs(g, none, bits("0000"), 3));
}

TEST(Verify, InducedDegreeAndKDegreeDs) {
  const CsrGraph g = starGraph(4);  // center 0
  const auto all = bits("11111");
  EXPECT_EQ(csrInducedMaxDegree(g, all, 1), 4);
  EXPECT_TRUE(kDegreeDs(g, all, 4));
  EXPECT_FALSE(kDegreeDs(g, all, 3));

  const auto centerOnly = bits("10000");
  EXPECT_EQ(csrInducedMaxDegree(g, centerOnly, 1), 0);
  EXPECT_TRUE(kDegreeDs(g, centerOnly, 0));
}

TEST(Verify, OutdegreeOrientationRules) {
  // Path 0-1-2 with all nodes in S; half-edges in port order are
  // (0->1), (1->0), (1->2), (2->1).
  const CsrGraph g = pathGraph(3);
  const auto all = bits("111");
  const auto toLeft = bits("0101");  // edge(0,1) -> 0, edge(1,2) -> 1
  EXPECT_EQ(csrInducedMaxOutdegree(g, all, toLeft, 1), 1);
  EXPECT_TRUE(kOutdegreeDs(g, all, toLeft, 1));
  EXPECT_FALSE(kOutdegreeDs(g, all, toLeft, 0));

  // Both edges outgoing from node 1: outdegree 2.
  const auto fromMiddle = bits("0110");
  EXPECT_EQ(csrInducedMaxOutdegree(g, all, fromMiddle, 1), 2);
  EXPECT_FALSE(kOutdegreeDs(g, all, fromMiddle, 1));
}

TEST(Verify, UnorientedInducedEdgeRejected) {
  const CsrGraph g = pathGraph(2);
  const auto all = bits("11");
  EXPECT_EQ(csrInducedMaxOutdegree(g, all, bits("00"), 1), -1);
  EXPECT_FALSE(kOutdegreeDs(g, all, bits("00"), 5));
  // Marked at both ends is no orientation either.
  EXPECT_EQ(csrInducedMaxOutdegree(g, all, bits("11"), 1), -1);
  EXPECT_FALSE(kOutdegreeDs(g, all, bits("11"), 5));
}

TEST(Verify, OrientationOutsideSetIgnored) {
  const CsrGraph g = pathGraph(3);
  const auto s = bits("101");  // no G[S] edges exist
  EXPECT_EQ(csrInducedMaxOutdegree(g, s, bits("0000"), 1), 0);
  EXPECT_TRUE(kOutdegreeDs(g, s, bits("0000"), 0));
  EXPECT_EQ(csrInducedMaxOutdegree(g, s, bits("1111"), 1), 0);
}

TEST(Verify, KZeroOutdegreeEqualsMis) {
  // Broom: path 0-1-2 whose end 2 carries bristles 3, 4.  Nodes 0 and 2
  // dominate everything and are independent: MIS <=> 0-outdegree DS (no
  // G[S] edges).
  const CsrGraph g = broomGraph(3, 2);
  const auto mis = bits("10100");
  const std::vector<std::uint8_t> none(g.numHalfEdges(), 0);
  EXPECT_TRUE(csrIsMaximalIndependentSet(g, flags(mis), 1));
  EXPECT_EQ(csrIsMaximalIndependentSet(g, flags(mis), 1),
            kOutdegreeDs(g, mis, none, 0));
  const auto notMis = bits("11100");
  EXPECT_EQ(csrIsMaximalIndependentSet(g, flags(notMis), 1),
            kOutdegreeDs(g, notMis, none, 0));
}

TEST(Verify, SizeMismatchThrows) {
  const CsrGraph g = pathGraph(3);
  EXPECT_THROW((void)csrIsIndependentSet(g, flags(bits("11")), 1), re::Error);
  EXPECT_THROW((void)csrInducedMaxDegree(g, bits("11"), 1), re::Error);
  EXPECT_THROW((void)csrInducedMaxOutdegree(g, bits("111"), bits("1"), 1),
               re::Error);
}

TEST(Verify, EmptyGraph) {
  // Zero nodes: every check is vacuous and every maximum is 0.
  const CsrGraph g;
  const std::vector<std::uint8_t> none;
  EXPECT_EQ(csrInducedMaxDegree(g, none, 1), 0);
  EXPECT_EQ(csrInducedMaxOutdegree(g, none, none, 1), 0);
  EXPECT_EQ(csrDefect(g, {}, 1), 0);
  EXPECT_TRUE(kDegreeDs(g, none, 0));
  EXPECT_TRUE(kOutdegreeDs(g, none, none, 0));
  EXPECT_TRUE(orientInduced(g, none).empty());
}

TEST(Verify, VerdictsAgreeAcrossWidths) {
  const CsrGraph g = testsupport::randomTree(3000, 6, 12);
  std::vector<std::uint8_t> all(g.numNodes(), 1);
  const auto outgoing = orientInduced(g, all);
  for (const int width : {1, 2, 4}) {
    EXPECT_EQ(csrInducedMaxDegree(g, all, width),
              static_cast<int>(g.maxDegree()));
    EXPECT_EQ(csrInducedMaxOutdegree(g, all, outgoing, width),
              csrInducedMaxOutdegree(g, all, outgoing, 1));
    EXPECT_TRUE(csrIsKOutdegreeDominatingSet(g, all, outgoing, 6, width));
  }
}

}  // namespace
}  // namespace relb::local
