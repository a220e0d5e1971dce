// Kernel-vs-oracle tests: every frontier kernel's output is re-checked by
// TWO verifier tiers -- the MisFlag/certificate verifiers it ships with and
// the byte-set k-(out)degree dominating-set verifiers (an MIS is a 0-degree
// dominating set), or a walk over the parent array.  Agreement of two
// independently written checkers is the oracle.
#include "local/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "local/families.hpp"
#include "local/verify.hpp"

namespace relb::local {
namespace {

std::vector<std::uint8_t> toByteSet(const std::vector<MisFlag>& state) {
  std::vector<std::uint8_t> out(state.size(), 0);
  for (std::size_t v = 0; v < state.size(); ++v) {
    out[v] = state[v] == MisFlag::kIn ? 1 : 0;
  }
  return out;
}

bool isMisByteSet(const CsrGraph& g, const std::vector<MisFlag>& state) {
  return csrIsKDegreeDominatingSet(g, toByteSet(state), 0, 1);
}

TEST(SimKernels, LubyMisAcceptedByBothVerifierTiers) {
  for (const Family family : allFamilies()) {
    for (const std::uint64_t seed : {1ull, 2ull, 77ull}) {
      const TreeInstance inst = makeTree(family, 400, 0, seed);
      const MisRun run = lubyMis(inst.graph, seed, 1);
      EXPECT_TRUE(csrIsMaximalIndependentSet(inst.graph, run.state, 1))
          << familyName(family) << " seed " << seed;
      EXPECT_TRUE(isMisByteSet(inst.graph, run.state))
          << familyName(family) << " seed " << seed;
      EXPECT_GT(run.rounds, 0);
      EXPECT_GT(run.misSize, 0u);
    }
  }
}

TEST(SimKernels, ColorReductionYieldsProper3ColoringOnEveryFamily) {
  for (const Family family : allFamilies()) {
    const TreeInstance inst = makeTree(family, 400, 0, 5);
    const ColorRun run = treeColorReduce(inst.graph, inst.parents, 1);
    EXPECT_LE(run.numColors, 3u) << familyName(family);
    EXPECT_TRUE(csrIsProperColoring(inst.graph, run.colors, 3, 1))
        << familyName(family);
    // Independent oracle: walk the parent array's edges.
    for (Vertex v = 1; v < inst.parents.size(); ++v) {
      EXPECT_NE(run.colors[v], run.colors[inst.parents[v]]);
    }
    EXPECT_GT(run.rounds, 0);
  }
}

TEST(SimKernels, DomsetReductionIsAZeroOutdegreeDominatingSet) {
  for (const Family family : allFamilies()) {
    const TreeInstance inst = makeTree(family, 400, 0, 3);
    const MisRun mis = lubyMis(inst.graph, 3, 1);
    const DomsetRun run = domsetFromMis(inst.graph, mis.state, 1);
    EXPECT_EQ(run.rounds, 1);
    EXPECT_EQ(run.setSize, mis.misSize);
    EXPECT_TRUE(csrIsZeroOutdegreeDominatingSet(inst.graph, run.inSet,
                                                run.dominator, 1))
        << familyName(family);
    // Second tier: the set dominates and G[S] admits an orientation of
    // outdegree 0 (Section 1.1's reduction target with k = 0).
    EXPECT_TRUE(csrIsKOutdegreeDominatingSet(
        inst.graph, run.inSet, orientInduced(inst.graph, run.inSet), 0, 1))
        << familyName(family);
  }
}

TEST(SimKernels, CorruptedMisStateRejectedByBothTiers) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 200, 0, 9);
  MisRun run = lubyMis(inst.graph, 9, 1);

  // Force an edge inside the set: some member's parent or child joins too.
  std::vector<MisFlag> adjacent = run.state;
  for (Vertex v = 1; v < 200; ++v) {
    if (adjacent[v] == MisFlag::kIn) {
      adjacent[inst.parents[v]] = MisFlag::kIn;
      break;
    }
  }
  EXPECT_FALSE(csrIsIndependentSet(inst.graph, adjacent, 1));
  EXPECT_FALSE(csrIsMaximalIndependentSet(inst.graph, adjacent, 1));
  EXPECT_FALSE(isMisByteSet(inst.graph, adjacent));

  // Drop one member: its (now uncovered) neighborhood breaks maximality.
  std::vector<MisFlag> dropped = run.state;
  for (Vertex v = 0; v < 200; ++v) {
    if (dropped[v] == MisFlag::kIn) {
      dropped[v] = MisFlag::kOut;
      break;
    }
  }
  EXPECT_FALSE(csrIsMaximalIndependentSet(inst.graph, dropped, 1));
  EXPECT_FALSE(isMisByteSet(inst.graph, dropped));

  // Undecided slots are never a valid final state.
  std::vector<MisFlag> undecided = run.state;
  undecided[0] = MisFlag::kUndecided;
  EXPECT_FALSE(csrIsIndependentSet(inst.graph, undecided, 1));
}

TEST(SimKernels, CorruptedColoringRejected) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 200, 0, 9);
  ColorRun run = treeColorReduce(inst.graph, inst.parents, 1);
  run.colors[1] = run.colors[inst.parents[1]];  // monochromatic edge
  EXPECT_FALSE(csrIsProperColoring(inst.graph, run.colors, 3, 1));
  run.colors[1] = 7;  // out of palette
  EXPECT_FALSE(csrIsProperColoring(inst.graph, run.colors, 3, 1));
}

TEST(SimKernels, CorruptedDomsetCertificateRejected) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 200, 0, 4);
  const MisRun mis = lubyMis(inst.graph, 4, 1);
  const DomsetRun good = domsetFromMis(inst.graph, mis.state, 1);

  // A non-member pointing at a non-adjacent node fails the certificate.
  DomsetRun bad = good;
  for (Vertex v = 0; v < 200; ++v) {
    if (bad.inSet[v] == 0) {
      bad.dominator[v] = bad.dominator[v] == 0 ? 1 : 0;
      bool adjacent = false;
      for (const Vertex w : inst.graph.neighbors(v)) {
        if (w == bad.dominator[v]) adjacent = true;
      }
      if (!adjacent) break;
      bad.dominator[v] = good.dominator[v];  // try the next vertex
    }
  }
  EXPECT_FALSE(csrIsZeroOutdegreeDominatingSet(inst.graph, bad.inSet,
                                               bad.dominator, 1));

  // A member whose dominator is not itself fails too.
  DomsetRun selfish = good;
  for (Vertex v = 0; v < 200; ++v) {
    if (selfish.inSet[v] != 0) {
      selfish.dominator[v] = kInvalidVertex;
      break;
    }
  }
  EXPECT_FALSE(csrIsZeroOutdegreeDominatingSet(inst.graph, selfish.inSet,
                                               selfish.dominator, 1));
}

TEST(SimKernels, LubyRoundShrinksTheFrontierMonotonically) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 1000, 0, 6);
  std::vector<MisFlag> state(1000, MisFlag::kUndecided);
  std::vector<std::uint8_t> inMark(1000, 0);
  Frontier frontier = fullFrontier(1000);
  int round = 0;
  while (!frontier.empty()) {
    const std::size_t before = frontier.size();
    frontier = lubyMisRound(inst.graph, frontier, state, inMark, 6, round, 1);
    EXPECT_LT(frontier.size(), before);  // at least one local max decides
    // Survivors stay sorted -- the block-merge invariant.
    EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
    ++round;
    ASSERT_LT(round, 64) << "Luby failed to converge";
  }
  EXPECT_TRUE(csrIsMaximalIndependentSet(inst.graph, state, 1));
}

}  // namespace
}  // namespace relb::local
