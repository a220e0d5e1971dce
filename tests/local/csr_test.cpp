#include "local/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "local/families.hpp"
#include "re/types.hpp"

namespace relb::local {
namespace {

/// The same tree built from its edge list -- the round-trip oracle for the
/// owner-computes parent build.
CsrGraph fromParentEdges(const std::vector<Vertex>& parents) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < parents.size(); ++v) edges.emplace_back(parents[v], v);
  return CsrGraph::fromEdges(static_cast<Vertex>(parents.size()), edges);
}

std::vector<Vertex> sortedNeighbors(const CsrGraph& g, Vertex v) {
  const auto span = g.neighbors(v);
  std::vector<Vertex> out(span.begin(), span.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Csr, FromParentsRoundTripsAgainstEdgeListBuild) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 500, 0, 42);
  const CsrGraph oracle = fromParentEdges(inst.parents);

  ASSERT_EQ(inst.graph.numNodes(), 500u);
  EXPECT_EQ(inst.graph.numHalfEdges(), 2u * 499u);
  EXPECT_EQ(inst.graph.maxDegree(), oracle.maxDegree());
  for (Vertex v = 0; v < inst.graph.numNodes(); ++v) {
    EXPECT_EQ(inst.graph.degree(v), oracle.degree(v));
    EXPECT_EQ(sortedNeighbors(inst.graph, v), sortedNeighbors(oracle, v));
  }
}

TEST(Csr, NeighborOrderIsParentFirstThenChildrenAscending) {
  // 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5}
  const std::vector<Vertex> parents{0, 0, 0, 1, 1, 2};
  const CsrGraph g = CsrGraph::fromParents(parents);
  const auto row = [&](Vertex v) {
    const auto span = g.neighbors(v);
    return std::vector<Vertex>(span.begin(), span.end());
  };
  EXPECT_EQ(row(0), (std::vector<Vertex>{1, 2}));  // root: children only
  EXPECT_EQ(row(1), (std::vector<Vertex>{0, 3, 4}));
  EXPECT_EQ(row(2), (std::vector<Vertex>{0, 5}));
  EXPECT_EQ(row(3), (std::vector<Vertex>{1}));
  EXPECT_EQ(g.maxDegree(), 3u);
}

TEST(Csr, FromEdgesKeepsEdgeEnumerationOrder) {
  const std::vector<std::pair<Vertex, Vertex>> edges{{2, 0}, {1, 2}, {0, 1}};
  const CsrGraph g = CsrGraph::fromEdges(3, edges);
  const auto row = [&](Vertex v) {
    const auto span = g.neighbors(v);
    return std::vector<Vertex>(span.begin(), span.end());
  };
  EXPECT_EQ(row(0), (std::vector<Vertex>{2, 1}));
  EXPECT_EQ(row(1), (std::vector<Vertex>{2, 0}));
  EXPECT_EQ(row(2), (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(g.maxDegree(), 2u);
}

TEST(Csr, FromEdgesMatchesFromParents) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 300, 4, 7);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < 300; ++v) edges.emplace_back(inst.parents[v], v);
  const CsrGraph g = CsrGraph::fromEdges(300, edges);

  EXPECT_EQ(g.numNodes(), inst.graph.numNodes());
  EXPECT_EQ(g.numHalfEdges(), inst.graph.numHalfEdges());
  EXPECT_EQ(g.maxDegree(), inst.graph.maxDegree());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    EXPECT_EQ(sortedNeighbors(g, v), sortedNeighbors(inst.graph, v));
  }
}

TEST(Csr, LayoutBytesMatchTheDocumentedMemoryMath) {
  const TreeInstance inst = makeTree(Family::kPath, 1000, 0, 0);
  // offsets: 4(n + 1) bytes; neighbors: 4 * 2(n - 1) bytes.
  EXPECT_EQ(inst.graph.layoutBytes(), 4u * 1001u + 4u * 2u * 999u);
  EXPECT_GE(inst.graph.arenaBytes(), inst.graph.layoutBytes());
}

TEST(Csr, SingleNodeGraph) {
  const std::vector<Vertex> parents{0};
  const CsrGraph g = CsrGraph::fromParents(parents);
  EXPECT_EQ(g.numNodes(), 1u);
  EXPECT_EQ(g.numHalfEdges(), 0u);
  EXPECT_EQ(g.maxDegree(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Csr, BasicAdjacency) {
  // Path 0-1-2 from an edge list: ports follow edge enumeration order.
  const std::vector<std::pair<Vertex, Vertex>> edges{{0, 1}, {1, 2}};
  const CsrGraph g = CsrGraph::fromEdges(3, edges);
  EXPECT_EQ(g.numNodes(), 3u);
  EXPECT_EQ(g.numHalfEdges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.portOf(1, 0), 0u);
  EXPECT_EQ(g.portOf(1, 2), 1u);
  EXPECT_EQ(g.halfEdge(1, 1), 2u);
  EXPECT_THROW((void)g.portOf(0, 2), re::Error);
}

TEST(Csr, RejectsMalformedInput) {
  EXPECT_THROW(CsrGraph::fromParents({}), re::Error);
  const std::vector<Vertex> rootNotZero{1, 0};
  EXPECT_THROW(CsrGraph::fromParents(rootNotZero), re::Error);
  const std::vector<Vertex> forwardParent{0, 2, 0};  // parents[1] >= 1
  EXPECT_THROW(CsrGraph::fromParents(forwardParent), re::Error);

  const std::vector<std::pair<Vertex, Vertex>> loop{{0, 0}};
  EXPECT_THROW(CsrGraph::fromEdges(2, loop), re::Error);
  const std::vector<std::pair<Vertex, Vertex>> outOfRange{{0, 5}};
  EXPECT_THROW(CsrGraph::fromEdges(2, outOfRange), re::Error);
  EXPECT_THROW(CsrGraph::fromEdges(0, {}), re::Error);
}

TEST(Csr, FamilyShapesAndDegreeBounds) {
  for (const Family family : allFamilies()) {
    const TreeInstance inst = makeTree(family, 200, 0, 5);
    EXPECT_EQ(inst.graph.numNodes(), 200u) << familyName(family);
    EXPECT_EQ(inst.graph.numHalfEdges(), 2u * 199u) << familyName(family);
    ASSERT_EQ(inst.parents.size(), 200u);
    EXPECT_EQ(inst.parents[0], 0u);
    for (Vertex v = 1; v < 200; ++v) {
      EXPECT_LT(inst.parents[v], v) << familyName(family);
    }
  }
  EXPECT_LE(makeTree(Family::kBoundedDegreeTree, 200, 0, 5).graph.maxDegree(),
            8u);
  EXPECT_LE(makeTree(Family::kCompleteTree, 200, 0, 5).graph.maxDegree(), 3u);
  EXPECT_LE(makeTree(Family::kPath, 200, 0, 5).graph.maxDegree(), 2u);
}

TEST(Csr, BoundedTreeRespectsExplicitCap) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 2000, 4, 9);
  EXPECT_LE(inst.graph.maxDegree(), 4u);
  EXPECT_GE(inst.graph.maxDegree(), 2u);
}

TEST(Csr, FamiliesAreSeedDeterministic) {
  const TreeInstance a = makeTree(Family::kRandomTree, 1000, 0, 11);
  const TreeInstance b = makeTree(Family::kRandomTree, 1000, 0, 11);
  const TreeInstance c = makeTree(Family::kRandomTree, 1000, 0, 12);
  EXPECT_EQ(a.parents, b.parents);
  EXPECT_NE(a.parents, c.parents);
}

TEST(Csr, FamilyNamesRoundTrip) {
  for (const Family family : allFamilies()) {
    const auto parsed = familyFromName(familyName(family));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(familyFromName("no-such-family").has_value());
}

// ---------------------------------------------------------------------------
// Width invariance of the partitioned build (docs/simulator.md, determinism
// contract item 6).
// ---------------------------------------------------------------------------

constexpr int kBuildWidths[] = {1, 2, 3, 8};

/// The CSR arrays, read back through the public accessors.
struct Layout {
  std::vector<std::uint32_t> offsets;
  std::vector<Vertex> neighbors;
  std::uint32_t maxDegree = 0;
  bool operator==(const Layout&) const = default;
};

Layout layoutOf(const CsrGraph& g) {
  Layout out;
  out.offsets.push_back(0);
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    out.neighbors.insert(out.neighbors.end(), row.begin(), row.end());
    out.offsets.push_back(static_cast<std::uint32_t>(out.neighbors.size()));
  }
  out.maxDegree = g.maxDegree();
  return out;
}

/// The single-pass serial builder (degree count, prefix sum, one cursor
/// fill in ascending child order) kept as the oracle for the partitioned
/// one.
Layout referenceLayout(const std::vector<Vertex>& parents) {
  const std::size_t n = parents.size();
  Layout out;
  out.offsets.assign(n + 1, 0);
  for (std::size_t v = 1; v < n; ++v) {
    ++out.offsets[v + 1];
    ++out.offsets[parents[v] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.neighbors.resize(out.offsets[n]);
  std::vector<std::uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t v = 1; v < n; ++v) {
    const Vertex p = parents[v];
    out.neighbors[cursor[v]++] = p;
    out.neighbors[cursor[p]++] = static_cast<Vertex>(v);
  }
  for (std::size_t v = 0; v < n; ++v) {
    out.maxDegree =
        std::max(out.maxDegree, out.offsets[v + 1] - out.offsets[v]);
  }
  return out;
}

void expectLayoutAtEveryWidth(const std::vector<Vertex>& parents,
                              const std::string& what) {
  const Layout want = referenceLayout(parents);
  for (const int width : kBuildWidths) {
    const Layout got = layoutOf(CsrGraph::fromParents(parents, width));
    EXPECT_EQ(got.offsets, want.offsets) << what << " width " << width;
    EXPECT_EQ(got.neighbors, want.neighbors) << what << " width " << width;
    EXPECT_EQ(got.maxDegree, want.maxDegree) << what << " width " << width;
  }
}

TEST(CsrBuildParallel, EveryFamilyMatchesTheSerialReferenceAtEveryWidth) {
  for (const Family family : allFamilies()) {
    for (const std::uint64_t nodes : {1ull, 2ull, 3ull, 50000ull}) {
      const std::vector<Vertex> parents = makeParents(family, nodes, 0, 17, 1);
      expectLayoutAtEveryWidth(parents, std::string(familyName(family)) +
                                            " n=" + std::to_string(nodes));
    }
  }
}

TEST(CsrBuildParallel, StarAndPathMatchTheSerialReferenceAtEveryWidth) {
  for (const Vertex n : {2u, 3u, 7u, 8u, 9u, 50000u}) {
    // A star puts every child under one owner; a path gives every node a
    // parent one id below it, so each id-range boundary splits an edge.
    const std::vector<Vertex> star(n, 0);
    expectLayoutAtEveryWidth(star, "star n=" + std::to_string(n));
    std::vector<Vertex> path(n, 0);
    for (Vertex v = 1; v < n; ++v) path[v] = v - 1;
    expectLayoutAtEveryWidth(path, "path n=" + std::to_string(n));
  }
}

#ifdef __linux__
TEST(CsrBuildParallel, OneRunnableCpuBuildsTheSameArrays) {
  // Pinned to one CPU, the owner scans run on one lane at any width.
  const std::vector<Vertex> parents =
      makeParents(Family::kRandomTree, 50000, 0, 31, 1);
  const Layout want = referenceLayout(parents);
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const Layout got = layoutOf(CsrGraph::fromParents(parents, 8));
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(got, want);
}
#endif

TEST(CsrBuildParallel, MakeParentsIsIdenticalAtEveryWidth) {
  for (const Family family : allFamilies()) {
    for (const std::uint64_t nodes : {1ull, 2ull, 3ull, 50000ull}) {
      const std::vector<Vertex> base = makeParents(family, nodes, 0, 29, 1);
      for (const int width : kBuildWidths) {
        EXPECT_EQ(makeParents(family, nodes, 0, 29, width), base)
            << familyName(family) << " n=" << nodes << " width " << width;
      }
    }
  }
}

TEST(CsrBuildParallel, ClosedFormParentsMatchTheSequentialGenerators) {
  // The iterative complete-tree, path and broom generators the closed forms
  // replaced: they pin that every instance (and so every state checksum)
  // is unchanged.
  const Vertex n = 5000;
  for (const std::uint32_t delta : {2u, 3u, 5u, 32u, 6000u}) {
    std::vector<Vertex> want(n, 0);
    Vertex nextParent = 1;
    std::uint32_t childrenLeft = delta - 1;
    for (Vertex v = delta + 1; v < n; ++v) {
      want[v] = nextParent;
      if (--childrenLeft == 0) {
        ++nextParent;
        childrenLeft = delta - 1;
      }
    }
    EXPECT_EQ(makeParents(Family::kCompleteTree, n, delta, 0, 8), want)
        << "Delta " << delta;
  }
  std::vector<Vertex> path(n, 0);
  std::vector<Vertex> broom(n, 0);
  for (Vertex v = 1; v < n; ++v) {
    path[v] = v - 1;
    broom[v] = v < n / 2 ? v - 1 : n / 2 - 1;
  }
  EXPECT_EQ(makeParents(Family::kPath, n, 0, 0, 8), path);
  EXPECT_EQ(makeParents(Family::kBroom, n, 0, 0, 8), broom);
}

std::string buildError(const std::vector<Vertex>& parents, int width) {
  try {
    (void)CsrGraph::fromParents(parents, width);
  } catch (const re::Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(CsrBuildParallel, MalformedParentsThrowTheSameErrorAtWidthEight) {
  std::vector<Vertex> lateForward(50000, 0);
  for (Vertex v = 1; v < 50000; ++v) lateForward[v] = v - 1;
  lateForward[49999] = 49999;  // parents[v] == v, in the last lane's range
  const std::vector<std::vector<Vertex>> bad{
      {1, 0}, {0, 2, 0}, {0, 0, 5}, lateForward};
  for (const std::vector<Vertex>& parents : bad) {
    const std::string serial = buildError(parents, 1);
    EXPECT_NE(serial, "no error");
    EXPECT_EQ(buildError(parents, 8), serial);
  }
  EXPECT_EQ(buildError({0, 2, 0}, 8),
            "CsrGraph: parents[v] < v required for v > 0");
  EXPECT_EQ(buildError({}, 8), "CsrGraph: need at least one node");
}

}  // namespace
}  // namespace relb::local
