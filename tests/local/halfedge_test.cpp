#include "local/halfedge.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/family.hpp"
#include "re/problem.hpp"
#include "support/graphs.hpp"

namespace relb::local {
namespace {

using testsupport::broomGraph;
using testsupport::completeTree;
using testsupport::cycleGraph;
using testsupport::pathGraph;
using testsupport::starGraph;

TEST(HalfEdgeLabeling, PortsIndexTheHalfEdgeArray) {
  const CsrGraph g = pathGraph(3);  // 0-1-2
  EXPECT_EQ(g.halfEdge(0, 0), 0u);
  EXPECT_EQ(g.halfEdge(1, 0), 1u);
  EXPECT_EQ(g.halfEdge(1, 1), 2u);
  EXPECT_EQ(g.halfEdge(2, 0), 3u);
  EXPECT_EQ(g.portOf(1, 0), 0u);
  EXPECT_EQ(g.portOf(1, 2), 1u);
  EXPECT_THROW((void)g.portOf(0, 2), re::Error);
  HalfEdgeLabeling l(g.numHalfEdges(), 0);
  l[g.halfEdge(0, 0)] = 2;
  l[g.halfEdge(1, g.portOf(1, 0))] = 1;
  EXPECT_EQ(l, (HalfEdgeLabeling{2, 1, 0, 0}));
}

TEST(Checker, AcceptsValidMisLabeling) {
  // Path 0-1-2 with node 1 in the MIS, Delta = 2 at node 1.
  const CsrGraph g = pathGraph(3);
  const auto mis = re::misProblem(2);
  const auto m = mis.alphabet.at("M");
  const auto p = mis.alphabet.at("P");
  const HalfEdgeLabeling l{p, m, m, p};
  const auto result = checkLabeling(g, mis, l);
  EXPECT_TRUE(result.ok()) << (result.messages.empty()
                                   ? ""
                                   : result.messages.front());
}

TEST(Checker, RejectsAdjacentMisNodes) {
  const CsrGraph g = pathGraph(2);
  const auto mis = re::misProblem(2);
  const auto m = mis.alphabet.at("M");
  const auto result = checkLabeling(g, mis, {m, m});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.edgeViolations, 1);
  EXPECT_EQ(result.nodeViolations, 0);  // degree-1 nodes skipped
  ASSERT_EQ(result.messages.size(), 1u);
  EXPECT_EQ(result.messages.front(), "edge (0,1): MM not allowed");
}

TEST(Checker, NodeConstraintCheckedAtFullDegreeOnly) {
  const CsrGraph g = starGraph(3);  // center has degree 3, leaves 1
  const auto mis = re::misProblem(3);
  const auto m = mis.alphabet.at("M");
  const auto p = mis.alphabet.at("P");
  HalfEdgeLabeling l{m, m, m, p, p, p};
  EXPECT_TRUE(checkLabeling(g, mis, l).ok());
  // Break the center's configuration: M M P is not allowed at degree 3.
  l[g.halfEdge(0, 2)] = p;
  const auto result = checkLabeling(g, mis, l);
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.nodeViolations, 1);
}

TEST(Checker, AllNodesModeChecksLeavesToo) {
  const CsrGraph g = pathGraph(2);
  const auto mis = re::misProblem(2);
  CheckOptions opts;
  opts.fullDegreeNodesOnly = false;
  // Degree-1 node labeled M: word "M" is not M^2, so it violates.
  const auto result = checkLabeling(
      g, mis, {mis.alphabet.at("M"), mis.alphabet.at("P")}, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.nodeViolations, 2);
}

TEST(Checker, OutOfRangeLabelReported) {
  const CsrGraph g = pathGraph(2);
  const auto mis = re::misProblem(2);
  // The alphabet has 3 labels.
  const auto result = checkLabeling(g, mis, {7, mis.alphabet.at("O")});
  EXPECT_FALSE(result.ok());
  EXPECT_THROW((void)checkLabeling(g, mis, {0}), re::Error);  // wrong size
}

TEST(Checker, ViolationMessagesCapped) {
  const CsrGraph g = completeTree(3, 2);
  const auto pi = core::familyProblem(3, 3, 0);
  const HalfEdgeLabeling l(g.numHalfEdges(), core::kM);
  CheckOptions opts;
  opts.maxViolations = 3;
  const auto result = checkLabeling(g, pi, l, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_LE(result.messages.size(), 3u);
  EXPECT_GT(result.edgeViolations, 3);
}

TEST(CompleteRegularTree, StructureAndColoring) {
  for (const std::uint32_t delta : {2u, 3u, 4u, 5u}) {
    for (const std::uint32_t depth : {0u, 1u, 2u, 3u}) {
      const CsrGraph g = completeTree(delta, depth);
      EXPECT_EQ(g.numHalfEdges(), 2 * (std::uint64_t{g.numNodes()} - 1));
      EXPECT_LE(g.maxDegree(), delta);
      if (depth >= 1) {
        EXPECT_EQ(g.maxDegree(), delta);
      }
      EXPECT_TRUE(isProperEdgeColoring(g, treeEdgeColoring(g), delta))
          << delta << "," << depth;
      // Interior nodes have degree exactly delta.
      if (depth >= 2) {
        EXPECT_EQ(g.degree(0), delta);  // root
        EXPECT_EQ(g.degree(1), delta);  // depth-1 node
      }
    }
  }
}

TEST(CompleteRegularTree, NodeCount) {
  // delta=3, depth=2: 1 + 3 + 6 = 10 nodes.
  EXPECT_EQ(completeTreeNodes(3, 2), 10u);
  EXPECT_EQ(completeTree(3, 2).numNodes(), 10u);
  // delta=4, depth=3: 1 + 4 + 12 + 36 = 53.
  EXPECT_EQ(completeTree(4, 3).numNodes(), 53u);
  EXPECT_EQ(completeTreeNodes(2, 5), 11u);
  // Oversize counts saturate instead of wrapping, and makeParents rejects
  // them.
  EXPECT_EQ(completeTreeNodes(16, 9), 1 + 16 * ((15ull * 15 * 15 * 15 * 15 *
                                                 15 * 15 * 15 * 15) - 1) / 14);
  EXPECT_EQ(completeTreeNodes(1000, 1000), ~std::uint64_t{0});
  EXPECT_THROW((void)makeParents(Family::kCompleteTree,
                                 completeTreeNodes(16, 9), 16, 0),
               re::Error);
}

TEST(TreeEdgeColoring, ChildrenSkipTheParentEdgeColor) {
  // 0 -> {1, 2, 3}; 1 -> {4, 5}; the edge 0-1 has color 0, so node 1's
  // children take colors 1 and 2.
  const CsrGraph g = testsupport::treeOf({0, 0, 0, 0, 1, 1});
  const auto colors = treeEdgeColoring(g);
  EXPECT_EQ(colors, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2, 1, 2, 1, 2}));
  EXPECT_TRUE(isProperEdgeColoring(g, colors, 3));
}

TEST(RandomTree, IsTreeWithCapAndProperColors) {
  for (std::uint64_t seed = 42; seed < 62; ++seed) {
    const CsrGraph g = testsupport::randomTree(60, 5, seed);
    EXPECT_EQ(g.numHalfEdges(), 2u * 59u);
    EXPECT_LE(g.maxDegree(), 5u);
    EXPECT_TRUE(isProperEdgeColoring(g, treeEdgeColoring(g), 5));
  }
}

TEST(TreeEdgeColoring, UsesAtMostDeltaColorsOnRandomTrees) {
  for (std::uint64_t seed = 7; seed < 17; ++seed) {
    const CsrGraph g = testsupport::randomTree(40, 4, seed);
    const auto colors = treeEdgeColoring(g);
    EXPECT_LE(*std::max_element(colors.begin(), colors.end()),
              g.maxDegree() - 1);
    EXPECT_TRUE(isProperEdgeColoring(g, colors, g.maxDegree()));
  }
}

TEST(Builders, PathCycleStarBroom) {
  const CsrGraph path = pathGraph(5);
  EXPECT_EQ(path.numHalfEdges(), 8u);
  EXPECT_EQ(path.maxDegree(), 2u);

  const CsrGraph cycle = cycleGraph(6);
  EXPECT_EQ(cycle.numHalfEdges(), 12u);
  EXPECT_EQ(cycle.maxDegree(), 2u);

  const CsrGraph star = starGraph(7);
  EXPECT_EQ(star.degree(0), 7u);
  EXPECT_TRUE(isProperEdgeColoring(star, treeEdgeColoring(star), 7));

  const CsrGraph broom = broomGraph(4, 3);
  EXPECT_EQ(broom.numHalfEdges(), 12u);
  EXPECT_EQ(broom.degree(3), 4u);  // path end + 3 bristles
}

TEST(SymmetricPortGadget, PortEqualsColorBothSides) {
  for (const std::uint32_t delta : {2u, 3u, 4u, 7u}) {
    const CsrGraph g = symmetricPortGadget(delta);
    EXPECT_EQ(g.numNodes(), 2 * delta);
    EXPECT_EQ(g.numHalfEdges(), 2u * delta * delta);
    EXPECT_EQ(g.maxDegree(), delta);
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      for (std::uint32_t p = 0; p < g.degree(v); ++p) {
        EXPECT_EQ(g.portOf(g.neighbors(v)[p], v), p);
      }
    }
  }
}

TEST(EdgeColoring, OddCycleNeedsThree) {
  // On the 5-cycle, alternating two colors must clash somewhere; a third
  // color on the closing edge fixes it.
  const CsrGraph g = cycleGraph(5);
  std::vector<std::uint32_t> colors(g.numHalfEdges());
  const auto colorEdges = [&](std::vector<std::uint32_t> edgeColor) {
    for (Vertex v = 0; v < 5; ++v) {
      const Vertex w = (v + 1) % 5;
      colors[g.halfEdge(v, g.portOf(v, w))] = edgeColor[v];
      colors[g.halfEdge(w, g.portOf(w, v))] = edgeColor[v];
    }
  };
  colorEdges({0, 1, 0, 1, 0});
  EXPECT_FALSE(isProperEdgeColoring(g, colors, 2));
  colorEdges({0, 1, 0, 1, 2});
  EXPECT_TRUE(isProperEdgeColoring(g, colors, 3));
  EXPECT_FALSE(isProperEdgeColoring(g, colors, 2));
  // Halves of one edge must agree.
  colors[g.halfEdge(0, 0)] = 2;
  EXPECT_FALSE(isProperEdgeColoring(g, colors, 3));
}

}  // namespace
}  // namespace relb::local
