// The engine's memo (engine.hpp): cache hits are bit-identical to cold
// runs, the per-operator statistics of a speedup step are consistent (a
// step read from an attached store counts as a cache hit), warm
// sessions perform zero recomputation for certifyChain / the speedup
// iteration, and canonical interning detects renamed duplicates.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "core/family.hpp"
#include "core/sequence.hpp"
#include "re/autobound.hpp"
#include "re/engine.hpp"
#include "re/problem.hpp"
#include "re/rename.hpp"
#include "re/zero_round.hpp"
#include "store/step_store.hpp"

namespace relb::re {
namespace {

void expectProblemsBitIdentical(const Problem& a, const Problem& b,
                                const std::string& what) {
  EXPECT_EQ(a.alphabet.names(), b.alphabet.names()) << what;
  EXPECT_EQ(a.node, b.node) << what;
  EXPECT_EQ(a.edge, b.edge) << what;
}

std::vector<std::pair<std::string, Problem>> speedupTestbed() {
  std::vector<std::pair<std::string, Problem>> out;
  for (Count delta = 3; delta <= 6; ++delta) {
    out.emplace_back("family(" + std::to_string(delta) + ")",
                     core::familyProblem(delta, delta / 2, 1));
    out.emplace_back("sinkless(" + std::to_string(delta) + ")",
                     sinklessOrientationProblem(delta));
    if (delta <= 4) {
      // MIS speedups beyond Delta = 4 exceed the engine's enumeration
      // guards / a unit test's time budget; the bit-identity contract is
      // degree-independent, so the small degrees carry the coverage.
      out.emplace_back("mis(" + std::to_string(delta) + ")",
                       misProblem(delta));
    }
  }
  return out;
}

TEST(EngineMemo, CacheHitIsBitIdenticalToColdRun) {
  for (const auto& [name, p] : speedupTestbed()) {
    const Problem cold = speedupStep(p);  // uncached free function
    EngineSession ctx;
    const Problem first = ctx.speedupStep(p);
    const CacheStats afterFirst = ctx.stats();
    EXPECT_EQ(afterFirst.stepHits, 0u) << name;
    EXPECT_EQ(afterFirst.stepMisses, 2u) << name;  // applyR + applyRbar
    const Problem second = ctx.speedupStep(p);
    const CacheStats afterSecond = ctx.stats();
    EXPECT_EQ(afterSecond.stepHits, 2u) << name;
    EXPECT_EQ(afterSecond.stepMisses, 2u) << name;  // nothing recomputed
    expectProblemsBitIdentical(cold, first, name + " cold vs ctx");
    expectProblemsBitIdentical(first, second, name + " miss vs hit");
  }
}

TEST(EngineMemo, ApplyRApplyRbarMatchFreeFunctions) {
  for (const auto& [name, p] : speedupTestbed()) {
    EngineSession ctx;
    const StepResult coldR = applyR(p);
    const StepResult ctxR = ctx.applyR(p);
    expectProblemsBitIdentical(coldR.problem, ctxR.problem, name + " R");
    EXPECT_EQ(coldR.meaning, ctxR.meaning) << name;
    const StepResult coldRbar = applyRbar(coldR.problem);
    const StepResult ctxRbar = ctx.applyRbar(ctxR.problem);
    expectProblemsBitIdentical(coldRbar.problem, ctxRbar.problem,
                               name + " Rbar");
    EXPECT_EQ(coldRbar.meaning, ctxRbar.meaning) << name;
  }
}

TEST(StepStats, MatchesSpeedupStepAndStatsAreConsistent) {
  for (const auto& [name, p] : speedupTestbed()) {
    EngineSession ctx;
    const SpeedupStepStats result = ctx.speedupStepWithStats(p);
    expectProblemsBitIdentical(speedupStep(p), result.problem, name);
    EXPECT_EQ(result.passes[0].name, "ApplyR") << name;
    EXPECT_EQ(result.passes[1].name, "ApplyRbar") << name;
    // Boundary consistency: what leaves R enters R-bar.
    EXPECT_EQ(result.passes[0].labelsOut, result.passes[1].labelsIn) << name;
    EXPECT_EQ(result.passes[0].nodeConfigsOut, result.passes[1].nodeConfigsIn)
        << name;
    EXPECT_EQ(result.passes[0].edgeConfigsOut, result.passes[1].edgeConfigsIn)
        << name;
    // R sees the input problem; R-bar emits the result.
    EXPECT_EQ(result.passes.front().labelsIn, p.alphabet.size()) << name;
    EXPECT_EQ(result.passes.front().nodeConfigsIn, p.node.size()) << name;
    EXPECT_EQ(result.passes.back().labelsOut,
              result.problem.alphabet.size())
        << name;
    EXPECT_EQ(result.passes.back().nodeConfigsOut, result.problem.node.size())
        << name;
    EXPECT_FALSE(result.passes[0].fromCache) << name;
    // A second step over the warm session is served from the memo.
    const SpeedupStepStats warm = ctx.speedupStepWithStats(p);
    expectProblemsBitIdentical(result.problem, warm.problem, name + " warm");
    EXPECT_TRUE(warm.passes[0].fromCache) << name;
    EXPECT_TRUE(warm.passes[1].fromCache) << name;
  }
}

TEST(StepStats, StepsServedFromTheStoreAreHits) {
  // A fresh core over a warm store recomputes nothing: both passes read
  // their step from the store, which ticks no memo hit, and must still
  // report a hit.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "step-stats-store";
  std::filesystem::remove_all(dir);
  const Problem p = misProblem(3);
  {
    EngineSession cold;
    cold.attachStore(std::make_shared<store::DiskStepStore>(dir));
    const SpeedupStepStats result = cold.speedupStepWithStats(p);
    EXPECT_FALSE(result.passes[0].fromCache);
    EXPECT_FALSE(result.passes[1].fromCache);
  }
  EngineSession warm;
  warm.attachStore(std::make_shared<store::DiskStepStore>(dir));
  const SpeedupStepStats result = warm.speedupStepWithStats(p);
  expectProblemsBitIdentical(speedupStep(p), result.problem, "warm store");
  EXPECT_EQ(warm.stats().stepMisses, 0u);
  EXPECT_EQ(warm.stats().storeHits, 2u);
  EXPECT_TRUE(result.passes[0].fromCache);
  EXPECT_TRUE(result.passes[1].fromCache);
  std::filesystem::remove_all(dir);
}

TEST(EngineMemo, ZeroRoundCheckFindsSolvableProblem) {
  // Every node may output A everywhere: trivially 0-round solvable.
  const Problem trivial = Problem::parse("A^3", "A A");
  const Problem mis = misProblem(3);
  EngineSession ctx;
  EXPECT_TRUE(ctx.zeroRoundSolvable(trivial, ZeroRoundMode::kAdversarialPorts));
  EXPECT_FALSE(ctx.zeroRoundSolvable(mis, ZeroRoundMode::kAdversarialPorts));
  EXPECT_EQ(ctx.stats().zeroRoundMisses, 2u);
  EXPECT_EQ(ctx.stats().zeroRoundHits, 0u);
  // The verdicts agree with the uncached analysis and replay from the memo.
  EXPECT_TRUE(zeroRoundSolvableAdversarialPorts(trivial));
  EXPECT_FALSE(zeroRoundSolvableAdversarialPorts(mis));
  EXPECT_TRUE(ctx.zeroRoundSolvable(trivial, ZeroRoundMode::kAdversarialPorts));
  EXPECT_FALSE(ctx.zeroRoundSolvable(mis, ZeroRoundMode::kAdversarialPorts));
  EXPECT_EQ(ctx.stats().zeroRoundMisses, 2u);
  EXPECT_EQ(ctx.stats().zeroRoundHits, 2u);
}

TEST(EngineMemo, RelaxAndInternPreserveEquivalence) {
  const Problem mis = misProblem(3);
  EngineSession ctx;
  const Problem plain = ctx.speedupStep(mis);
  Problem relaxed = plain;
  relaxed.node.removeDominatedConfigurations();
  relaxed.edge.removeDominatedConfigurations();
  const Problem renamed = ctx.intern(relaxed).canonical.problem;
  // Relaxing and canonical renaming keep the language: same zero-round
  // verdicts, and the result is isomorphic to the plain speedup when small
  // enough to check.
  EXPECT_EQ(zeroRoundSolvableAdversarialPorts(plain),
            zeroRoundSolvableAdversarialPorts(renamed));
  if (plain.alphabet.size() <= 10 &&
      plain.alphabet.size() == renamed.alphabet.size()) {
    EXPECT_TRUE(equivalentUpToRenaming(plain, renamed));
  }
}

TEST(EngineMemo, CertifyChainWarmRerunRecomputesNothing) {
  const core::Chain chain = core::exactChain(1 << 10, 1);
  ASSERT_GT(chain.steps.size(), 3u);
  EngineSession ctx;
  const std::string coldVerdict = core::certifyChain(chain, ctx);
  EXPECT_EQ(coldVerdict, core::certifyChain(chain));  // same as context-free
  const CacheStats cold = ctx.stats();
  EXPECT_EQ(cold.zeroRoundMisses, chain.steps.size());
  const std::string warmVerdict = core::certifyChain(chain, ctx);
  EXPECT_EQ(warmVerdict, coldVerdict);
  const CacheStats warm = ctx.stats();
  EXPECT_EQ(warm.zeroRoundMisses, cold.zeroRoundMisses)
      << "warm certifyChain recomputed a zero-round verdict";
  EXPECT_EQ(warm.zeroRoundHits, cold.zeroRoundHits + chain.steps.size());
}

TEST(EngineMemo, IterateSpeedupWarmRerunRecomputesNothing) {
  const Problem mis = misProblem(3);
  IterateOptions options;
  options.maxSteps = 2;
  options.maxLabels = 32;
  EngineSession fresh;
  const IterationTrace plain = iterateSpeedup(fresh, mis, options);

  EngineSession ctx;
  const IterationTrace cold = iterateSpeedup(ctx, mis, options);
  const CacheStats afterCold = ctx.stats();
  EXPECT_GT(afterCold.stepMisses, 0u);
  const IterationTrace warm = iterateSpeedup(ctx, mis, options);
  const CacheStats afterWarm = ctx.stats();
  EXPECT_EQ(afterWarm.stepMisses, afterCold.stepMisses)
      << "warm iteration recomputed a speedup step";
  EXPECT_GT(afterWarm.stepHits, afterCold.stepHits);

  // Traces on separate cores, cold or warm, are identical.
  for (const IterationTrace* t : {&cold, &warm}) {
    EXPECT_EQ(plain.reason, t->reason);
    ASSERT_EQ(plain.steps.size(), t->steps.size());
    for (std::size_t i = 0; i < plain.steps.size(); ++i) {
      EXPECT_EQ(plain.steps[i].labels, t->steps[i].labels);
    }
    expectProblemsBitIdentical(plain.last, t->last, "iterate trace");
  }
}

TEST(EngineMemo, FixedPointDetectionAgreesFreshAndWarm) {
  // A session over a fresh core against one over a core another session
  // warmed: the warm one is served from the memo and the intern table.
  for (Count delta = 3; delta <= 5; ++delta) {
    const Problem so = sinklessOrientationProblem(delta);
    IterateOptions options;
    options.maxSteps = 4;
    EngineSession fresh;
    const IterationTrace plain = iterateSpeedup(fresh, so, options);
    auto shared = std::make_shared<EngineCore>();
    EngineSession warmer(shared);
    (void)iterateSpeedup(warmer, so, options);
    EngineSession warm(shared);
    const IterationTrace again = iterateSpeedup(warm, so, options);
    EXPECT_EQ(warm.stats().stepMisses, 0u) << delta;
    EXPECT_EQ(plain.reason, again.reason) << delta;
    EXPECT_EQ(plain.fixedPointAt, again.fixedPointAt) << delta;
    EXPECT_EQ(plain.zeroRoundAfter, again.zeroRoundAfter) << delta;
    expectProblemsBitIdentical(plain.last, again.last, "fixed point");
  }
}

TEST(EngineMemo, AutoLowerBoundAgreesFreshAndWarm) {
  for (const Problem& p : {misProblem(3), sinklessOrientationProblem(3)}) {
    AutoLowerBoundOptions options;
    options.maxSteps = 3;
    const AutoLowerBound plain = EngineSession().autoLowerBound(p, options);
    auto shared = std::make_shared<EngineCore>();
    (void)EngineSession(shared).autoLowerBound(p, options);
    EngineSession warm(shared);
    const AutoLowerBound again = warm.autoLowerBound(p, options);
    EXPECT_EQ(warm.stats().autoboundHits, 1u);
    EXPECT_EQ(plain.rounds, again.rounds);
    EXPECT_EQ(plain.reason, again.reason);
    EXPECT_EQ(plain.labelsPerStep, again.labelsPerStep);
  }
}

TEST(EngineMemo, InternDetectsRenamedDuplicates) {
  EngineSession ctx;
  const Problem mis = misProblem(3);
  const auto first = ctx.intern(mis);
  EXPECT_FALSE(first.alreadyInterned);
  const auto again = ctx.intern(mis);
  EXPECT_TRUE(again.alreadyInterned);
  EXPECT_EQ(first.hash, again.hash);

  // A renamed copy (relabeled + different names) interns to the same entry.
  Alphabet fresh;
  fresh.add("zz");
  fresh.add("yy");
  fresh.add("xx");
  const Problem renamed = renameProblem(mis, {2, 0, 1}, fresh);
  const auto permuted = ctx.intern(renamed);
  EXPECT_TRUE(permuted.alreadyInterned);
  EXPECT_EQ(permuted.hash, first.hash);
  EXPECT_EQ(permuted.canonical.problem, first.canonical.problem);
  EXPECT_EQ(ctx.stats().internedProblems, 1u);

  // A structurally different problem interns separately.
  const auto other = ctx.intern(sinklessOrientationProblem(3));
  EXPECT_FALSE(other.alreadyInterned);
  EXPECT_NE(other.hash, first.hash);
  EXPECT_EQ(ctx.stats().internedProblems, 2u);
}

TEST(EngineMemo, SharedSubResultsAreCached) {
  const Problem p = core::familyProblem(5, 2, 1);
  EngineSession ctx;
  const auto compat1 = ctx.edgeCompatibility(p.edge, p.alphabet.size());
  const auto compat2 = ctx.edgeCompatibility(p.edge, p.alphabet.size());
  EXPECT_EQ(compat1, compat2);
  EXPECT_EQ(ctx.stats().edgeCompatMisses, 1u);
  EXPECT_EQ(ctx.stats().edgeCompatHits, 1u);

  const auto rc1 = ctx.rightClosedSets(p.node, p.alphabet.size(),
                                       p.alphabet.all(), 5'000'000);
  const auto rc2 = ctx.rightClosedSets(p.node, p.alphabet.size(),
                                       p.alphabet.all(), 5'000'000);
  EXPECT_EQ(rc1, rc2);
  EXPECT_EQ(ctx.stats().rightClosedMisses, 1u);
  EXPECT_EQ(ctx.stats().rightClosedHits, 1u);
}

}  // namespace
}  // namespace relb::re
