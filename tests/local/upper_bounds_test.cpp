// The Section 1.1 upper bounds on CsrGraph: Linial coloring and the
// reduction to Delta+1 colors, (arb)defective colorings, the class-sweep
// dominating sets, the greedy baselines, and Luby's MIS -- on random and
// pathological trees, cycles and the symmetric-port gadget (the algorithms
// are stated for general graphs; trees are only where the *lower* bound
// lives).
#include "local/upper_bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "local/halfedge.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"
#include "re/types.hpp"
#include "support/graphs.hpp"

namespace relb::local {
namespace {

using testsupport::broomGraph;
using testsupport::completeTree;
using testsupport::count;
using testsupport::cycleGraph;
using testsupport::pathGraph;
using testsupport::randomTree;
using testsupport::starGraph;

bool isProper(const CsrGraph& g, const ColorRun& run) {
  return csrIsProperColoring(g, run.colors, run.numColors, 1);
}
bool isMis(const CsrGraph& g, const std::vector<std::uint8_t>& inSet) {
  return csrIsKDegreeDominatingSet(g, inSet, 0, 1);
}
bool isKOutdegreeDs(const CsrGraph& g, const DomSetResult& ds, int k) {
  return csrIsKOutdegreeDominatingSet(g, ds.inSet, ds.outgoing, k, 1);
}

TEST(NextPrime, SmallValues) {
  EXPECT_EQ(nextPrime(0), 2u);
  EXPECT_EQ(nextPrime(2), 2u);
  EXPECT_EQ(nextPrime(3), 3u);
  EXPECT_EQ(nextPrime(4), 5u);
  EXPECT_EQ(nextPrime(14), 17u);
  EXPECT_EQ(nextPrime(1000), 1009u);
}

TEST(LinialStep, ReducesIdsOnTree) {
  const CsrGraph g = completeTree(3, 6);  // 190 nodes
  std::vector<std::uint32_t> ids(g.numNodes());
  for (Vertex v = 0; v < g.numNodes(); ++v) ids[v] = v;
  const ColorRun next = linialStep(g, ids, g.numNodes());
  EXPECT_TRUE(isProper(g, next));
  EXPECT_LT(next.numColors, g.numNodes());
  EXPECT_EQ(next.rounds, 1);
}

TEST(LinialReduction, ReachesPolyDeltaColorsFast) {
  for (const std::uint32_t delta : {3u, 4u, 6u}) {
    const CsrGraph g = completeTree(delta, 4);
    const ColorRun result = linialColorReduction(g);
    EXPECT_TRUE(isProper(g, result));
    // O(Delta^2) colors: q <= nextPrime(~2 Delta + small), so q^2 bounded.
    EXPECT_LE(result.numColors, (4 * delta + 8) * (4 * delta + 8));
    // log*-ish round count: generously small.
    EXPECT_LE(result.rounds, 8) << "delta=" << delta;
  }
}

TEST(LinialReduction, RoundsGrowVerySlowlyWithN) {
  const CsrGraph small = randomTree(20, 4, 5);
  const CsrGraph large = randomTree(4000, 4, 6);
  const ColorRun rSmall = linialColorReduction(small);
  const ColorRun rLarge = linialColorReduction(large);
  EXPECT_TRUE(isProper(large, rLarge));
  // 200x more nodes costs at most ~2 extra reduction rounds (log* growth).
  EXPECT_LE(rLarge.rounds, rSmall.rounds + 2);
}

TEST(ReduceToDeltaPlusOne, ProperAndTight) {
  for (std::uint64_t seed = 11; seed < 16; ++seed) {
    const CsrGraph g = randomTree(100, 5, seed);
    const ColorRun result = properColoring(g);
    EXPECT_TRUE(csrIsProperColoring(g, result.colors, g.maxDegree() + 1, 1));
    EXPECT_EQ(result.numColors, g.maxDegree() + 1);
  }
}

TEST(ProperColoring, WorksOnPathAndStar) {
  const CsrGraph path = pathGraph(50);
  EXPECT_TRUE(csrIsProperColoring(path, properColoring(path).colors, 3, 1));
  const CsrGraph star = starGraph(9);
  EXPECT_TRUE(csrIsProperColoring(star, properColoring(star).colors, 10, 1));
}

TEST(ProperColoring, SingleNode) {
  const CsrGraph g = testsupport::treeOf({0});
  const ColorRun result = properColoring(g);
  EXPECT_EQ(result.numColors, 1u);
  EXPECT_EQ(result.colors[0], 0u);
}

TEST(IsProperColoring, DetectsViolations) {
  const CsrGraph g = pathGraph(3);
  const auto check = [&](std::vector<std::uint32_t> colors) {
    return csrIsProperColoring(g, colors, 2, 1);
  };
  EXPECT_FALSE(check({0, 0, 1}));
  EXPECT_THROW((void)check({0, 1}), re::Error);  // size mismatch
  EXPECT_FALSE(check({0, 2, 0}));                // out of range
  EXPECT_TRUE(check({0, 1, 0}));
}

struct DefCase {
  Vertex n;
  std::uint32_t maxDegree;
  int k;
  unsigned seed;
};

std::string defCaseName(const ::testing::TestParamInfo<DefCase>& info) {
  return "n" + std::to_string(info.param.n) + "d" +
         std::to_string(info.param.maxDegree) + "k" +
         std::to_string(info.param.k) + "s" + std::to_string(info.param.seed);
}

class DefectiveSweep : public ::testing::TestWithParam<DefCase> {};

TEST_P(DefectiveSweep, DefectAndColorBoundsHold) {
  const auto param = GetParam();
  const CsrGraph g = randomTree(param.n, param.maxDegree, param.seed);
  const ColorRun proper = properColoring(g);
  ASSERT_TRUE(isProper(g, proper));

  const ColorRun def = kDefectiveColoring(g, proper, param.k);
  EXPECT_LE(csrDefect(g, def.colors, 1), param.k);
  EXPECT_EQ(def.rounds, 1);
  // O((Delta/k)^2 + Delta) classes.
  const std::uint64_t delta = g.maxDegree();
  const std::uint64_t budget = delta / (param.k + 1) + 1;
  const std::uint64_t q = nextPrime(std::max<std::uint64_t>(
      {2, budget,
       static_cast<std::uint64_t>(std::ceil(std::sqrt(delta + 1.0)))}));
  EXPECT_LE(def.numColors, (q + 30) * (q + 30));
}

TEST_P(DefectiveSweep, ArbdefectBoundsHold) {
  const auto param = GetParam();
  const CsrGraph g = randomTree(param.n, param.maxDegree, param.seed + 1);
  const ColorRun proper = properColoring(g);
  const ArbdefectiveRun arb = kArbdefectiveColoring(g, proper, param.k);
  const int out = csrArbdefect(g, arb.classes.colors, arb.outgoing, 1);
  ASSERT_GE(out, 0) << "some intra-class edge unoriented";
  EXPECT_LE(out, param.k);
  // ceil((Delta+1)/(k+1)) classes.
  const std::uint32_t k = static_cast<std::uint32_t>(param.k);
  EXPECT_EQ(arb.classes.numColors, (g.maxDegree() + 1 + k) / (k + 1));
  EXPECT_EQ(static_cast<std::uint32_t>(arb.classes.rounds), proper.numColors);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DefectiveSweep,
    ::testing::Values(DefCase{50, 4, 1, 1}, DefCase{100, 5, 1, 2},
                      DefCase{100, 5, 2, 3}, DefCase{200, 8, 2, 4},
                      DefCase{200, 8, 3, 5}, DefCase{300, 10, 4, 6},
                      DefCase{300, 10, 1, 7}, DefCase{500, 12, 5, 8}),
    defCaseName);

TEST(Defective, ZeroDefectIsProper) {
  const CsrGraph g = randomTree(80, 4, 10);
  const ColorRun def = kDefectiveColoring(g, properColoring(g), 0);
  EXPECT_EQ(csrDefect(g, def.colors, 1), 0);
  EXPECT_TRUE(isProper(g, def));
}

TEST(Defective, LargerKFewerColors) {
  const CsrGraph g = randomTree(400, 12, 20);
  const ColorRun proper = properColoring(g);
  EXPECT_LE(kDefectiveColoring(g, proper, 4).numColors,
            kDefectiveColoring(g, proper, 1).numColors);
}

TEST(Arbdefective, FewerBinsThanDegreePlusOne) {
  const CsrGraph g = randomTree(200, 9, 30);
  const ArbdefectiveRun arb = kArbdefectiveColoring(g, properColoring(g), 3);
  EXPECT_LT(arb.classes.numColors, g.maxDegree() + 1);
}

TEST(Defective, DefectOfHelpers) {
  // On a star, the center counts its same-colored neighbors.
  const CsrGraph g = starGraph(4);
  const std::vector<std::uint32_t> sameAsCenter{0, 0, 1, 1, 1};
  EXPECT_EQ(csrDefect(g, sameAsCenter, 1), 1);  // center matches leaf 1
  std::vector<std::uint8_t> outgoing(g.numHalfEdges(), 0);
  // Intra-class edge 0-1 unoriented -> -1 sentinel.
  EXPECT_EQ(csrArbdefect(g, sameAsCenter, outgoing, 1), -1);
  outgoing[g.halfEdge(0, 0)] = 1;  // 0 -> 1
  EXPECT_EQ(csrArbdefect(g, sameAsCenter, outgoing, 1), 1);
}

TEST(Defective, RejectsNegativeK) {
  const CsrGraph g = pathGraph(3);
  const ColorRun proper = properColoring(g);
  EXPECT_THROW((void)kDefectiveColoring(g, proper, -1), re::Error);
  EXPECT_THROW((void)kArbdefectiveColoring(g, proper, -1), re::Error);
}

class DomSetSweep : public ::testing::TestWithParam<DefCase> {};

TEST_P(DomSetSweep, OutdegreeVariantValid) {
  const auto param = GetParam();
  const CsrGraph g = randomTree(param.n, param.maxDegree, param.seed);
  EXPECT_TRUE(
      isKOutdegreeDs(g, kOutdegreeDominatingSet(g, param.k), param.k));
}

TEST_P(DomSetSweep, DegreeVariantValid) {
  const auto param = GetParam();
  const CsrGraph g = randomTree(param.n, param.maxDegree, param.seed + 10);
  EXPECT_TRUE(csrIsKDegreeDominatingSet(
      g, kDegreeDominatingSet(g, param.k).inSet, param.k, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DomSetSweep,
    ::testing::Values(DefCase{50, 4, 0, 1}, DefCase{100, 5, 1, 2},
                      DefCase{150, 6, 2, 3}, DefCase{200, 8, 3, 4},
                      DefCase{300, 10, 4, 5}, DefCase{400, 12, 6, 6},
                      DefCase{500, 14, 2, 7}, DefCase{250, 9, 8, 8}),
    defCaseName);

TEST(DomSet, MisFromColoringIsMis) {
  for (std::uint64_t seed = 42; seed < 47; ++seed) {
    const CsrGraph g = randomTree(120, 6, seed);
    EXPECT_TRUE(isMis(g, misFromColoring(g).inSet));
  }
}

TEST(DomSet, KZeroMatchesMisSemantics) {
  const CsrGraph g = randomTree(80, 5, 4);
  const DomSetResult result = kOutdegreeDominatingSet(g, 0);
  EXPECT_TRUE(isMis(g, result.inSet));
  EXPECT_TRUE(isKOutdegreeDs(g, result, 0));
}

TEST(DomSet, SweepRoundsShrinkWithK) {
  // The k-dependence of the paper's upper bound: the sweep stage costs one
  // round per (arb)defective class, and larger k means fewer classes.
  const CsrGraph g = randomTree(600, 16, 8);
  EXPECT_LT(kOutdegreeDominatingSet(g, 7).roundsSweep,
            kOutdegreeDominatingSet(g, 1).roundsSweep);
  EXPECT_LT(kDegreeDominatingSet(g, 7).roundsSweep,
            kDegreeDominatingSet(g, 1).roundsSweep);
}

TEST(DomSet, WorksOnPathologicalTrees) {
  for (const CsrGraph& g :
       {starGraph(40), broomGraph(15, 25), pathGraph(100)}) {
    for (const int k : {0, 1, 3}) {
      EXPECT_TRUE(isKOutdegreeDs(g, kOutdegreeDominatingSet(g, k), k));
    }
  }
}

TEST(DomSet, GreedyBaselines) {
  const CsrGraph g = randomTree(200, 7, 77);
  const auto mis = greedyMis(g);
  EXPECT_TRUE(isMis(g, mis));
  const auto ds = greedyDominatingSet(g);
  EXPECT_TRUE(csrIsKDegreeDominatingSet(g, ds, static_cast<int>(g.maxDegree()),
                                        1));
  // Greedy DS is no larger than twice the MIS (both dominate; greedy picks
  // high-coverage nodes first).
  EXPECT_LE(count(ds), count(mis) * 2);
}

TEST(DomSet, LargerKNeverInvalidatesSmallerSolution) {
  // A k-outdegree DS is also a (k+1)-outdegree DS.
  const CsrGraph g = randomTree(150, 8, 21);
  const DomSetResult result = kOutdegreeDominatingSet(g, 2);
  for (int k = 2; k <= 5; ++k) EXPECT_TRUE(isKOutdegreeDs(g, result, k));
}

TEST(DomSet, RejectsNegativeK) {
  const CsrGraph g = pathGraph(4);
  EXPECT_THROW((void)kOutdegreeDominatingSet(g, -1), re::Error);
  EXPECT_THROW((void)kDegreeDominatingSet(g, -2), re::Error);
}

struct LubyCase {
  Vertex n;
  std::uint32_t maxDegree;
  unsigned seed;
};

class LubySweep : public ::testing::TestWithParam<LubyCase> {};

TEST_P(LubySweep, ProducesMisOnRandomTrees) {
  const auto param = GetParam();
  const CsrGraph g = randomTree(param.n, param.maxDegree, param.seed);
  const MisRun result = lubyMis(g, param.seed, 1);
  EXPECT_TRUE(csrIsMaximalIndependentSet(g, result.state, 1));
  EXPECT_GT(result.rounds, 0);
  EXPECT_EQ(result.misSize,
            static_cast<std::uint64_t>(std::count(
                result.state.begin(), result.state.end(), MisFlag::kIn)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LubySweep,
    ::testing::Values(LubyCase{2, 2, 1}, LubyCase{10, 3, 2},
                      LubyCase{50, 4, 3}, LubyCase{200, 4, 4},
                      LubyCase{200, 8, 5}, LubyCase{1000, 6, 6},
                      LubyCase{1000, 3, 7}, LubyCase{3000, 5, 8}),
    [](const ::testing::TestParamInfo<LubyCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.maxDegree) + "s" +
             std::to_string(info.param.seed);
    });

TEST(Luby, WorksOnPathologicalTrees) {
  for (const CsrGraph& g :
       {starGraph(50), broomGraph(20, 30), pathGraph(200)}) {
    EXPECT_TRUE(csrIsMaximalIndependentSet(g, lubyMis(g, 99, 1).state, 1));
  }
}

TEST(Luby, WorksOnCycles) {
  const CsrGraph g = cycleGraph(101);
  EXPECT_TRUE(csrIsMaximalIndependentSet(g, lubyMis(g, 7, 1).state, 1));
}

TEST(Luby, RoundsLogarithmicInN) {
  // Average rounds over seeds must stay within a small multiple of log2 n.
  const CsrGraph g = randomTree(2000, 5, 1);
  double total = 0;
  const int trials = 5;
  for (std::uint64_t seed = 100; seed < 100 + trials; ++seed) {
    total += lubyMis(g, seed, 1).rounds;
  }
  EXPECT_LE(total / trials, 3.0 * std::log2(2000.0));
}

TEST(Luby, SingleNodeJoins) {
  const CsrGraph g = testsupport::treeOf({0});
  const MisRun result = lubyMis(g, 3, 1);
  EXPECT_EQ(result.state[0], MisFlag::kIn);
  EXPECT_EQ(result.rounds, 1);
}

TEST(NonTree, LubyOnGadget) {
  for (const std::uint32_t delta : {2u, 3u, 5u, 8u}) {
    const CsrGraph g = symmetricPortGadget(delta);
    EXPECT_TRUE(csrIsMaximalIndependentSet(g, lubyMis(g, 2, 1).state, 1))
        << "delta=" << delta;
  }
}

TEST(NonTree, ColoringOnGadget) {
  for (const std::uint32_t delta : {2u, 3u, 5u}) {
    const CsrGraph g = symmetricPortGadget(delta);
    EXPECT_TRUE(csrIsProperColoring(g, properColoring(g).colors,
                                    g.maxDegree() + 1, 1));
  }
}

TEST(NonTree, MisFromColoringOnCycles) {
  for (const Vertex n : {5u, 8u, 13u, 100u}) {
    const CsrGraph g = cycleGraph(n);
    EXPECT_TRUE(isMis(g, misFromColoring(g).inSet)) << n;
  }
}

TEST(NonTree, KOutdegreeDsOnGadget) {
  for (const std::uint32_t delta : {4u, 6u}) {
    const CsrGraph g = symmetricPortGadget(delta);
    for (const int k : {0, 1, 2}) {
      EXPECT_TRUE(isKOutdegreeDs(g, kOutdegreeDominatingSet(g, k), k))
          << "delta=" << delta << " k=" << k;
    }
  }
}

TEST(NonTree, KDegreeDsOnCycle) {
  const CsrGraph g = cycleGraph(30);
  for (const int k : {0, 1, 2}) {
    EXPECT_TRUE(
        csrIsKDegreeDominatingSet(g, kDegreeDominatingSet(g, k).inSet, k, 1))
        << k;
  }
}

TEST(NonTree, DefectiveColoringOnGadget) {
  const CsrGraph g = symmetricPortGadget(6);
  const ColorRun proper = properColoring(g);
  for (const int k : {1, 2, 3}) {
    EXPECT_LE(csrDefect(g, kDefectiveColoring(g, proper, k).colors, 1), k);
    const ArbdefectiveRun arb = kArbdefectiveColoring(g, proper, k);
    const int out = csrArbdefect(g, arb.classes.colors, arb.outgoing, 1);
    ASSERT_GE(out, 0);
    EXPECT_LE(out, k);
  }
}

TEST(NonTree, GadgetPortColoringIsAProperDeltaEdgeColoring) {
  const CsrGraph g = symmetricPortGadget(5);
  std::vector<std::uint32_t> colors(g.numHalfEdges());
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      colors[g.halfEdge(v, p)] = p;
    }
  }
  EXPECT_TRUE(isProperEdgeColoring(g, colors, 5));
  EXPECT_FALSE(isProperEdgeColoring(g, colors, 4));
}

}  // namespace
}  // namespace relb::local
