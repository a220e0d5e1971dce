// The whole-result autoLowerBound memo and the step memo's refusal entries
// (engine.hpp): a search served warm from a shared core equals the same
// search on a fresh core, on the serve popular set, the built-in families
// and a random sweep; every key field separates entries; a refused step
// replays the identical re::Error; and sessions racing on one core agree.
// The concurrency test runs under TSan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "family/builtin.hpp"
#include "family/def.hpp"
#include "family/derive.hpp"
#include "gen/random_problem.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "re/autobound.hpp"
#include "re/engine.hpp"

namespace relb::re {
namespace {

Problem parseSpec(std::string node, std::string edge) {
  for (std::string* s : {&node, &edge}) {
    for (char& ch : *s) {
      if (ch == ';') ch = '\n';
    }
  }
  return Problem::parse(node, edge);
}

/// The problem requests of the serve benchmark's popular set (driver
/// problem mode: 3 steps, merge target 10 labels).
std::vector<Problem> popularSet() {
  return {
      parseSpec("M^3; P O^2", "M [P O]; O O"),
      parseSpec("M^4; A^2 X^2; P O^3",
                "M [P O A X]; O [M O A X]; P [M X]; A [M O X]; X [M P O A X]"),
      parseSpec("S^3; P1 O1^2; P2 O2^2", "S [P1 O1]; O1 [O1 P2 O2]; O2^2"),
      parseSpec("M O^2; P^3", "M^2; O [O P]"),
      parseSpec("C1^3; C2^3; C3^3", "C1 [C2 C3]; C2 [C1 C3]; [C1 C2] C3"),
  };
}

void expectSame(const AutoLowerBound& a, const AutoLowerBound& b,
                const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.reason, b.reason) << what;
  EXPECT_EQ(a.labelsPerStep, b.labelsPerStep) << what;
}

StepOptions serialOptions() {
  StepOptions serial;
  serial.numThreads = 1;
  return serial;
}

/// The search on a fresh core, then the same search through a second
/// session over a shared core twice and through a third one: the first is a
/// miss, every repeat a hit, and all agree.
void expectWarmMatchesFresh(const Problem& p,
                            const AutoLowerBoundOptions& options,
                            const std::string& what) {
  const AutoLowerBound plain =
      EngineSession(nullptr, serialOptions()).autoLowerBound(p, options);
  auto shared = std::make_shared<EngineCore>();
  EngineSession session(shared, serialOptions());
  expectSame(plain, session.autoLowerBound(p, options), what + " (cold)");
  expectSame(plain, session.autoLowerBound(p, options), what + " (warm)");
  EXPECT_EQ(session.stats().autoboundMisses, 1u) << what;
  EXPECT_EQ(session.stats().autoboundHits, 1u) << what;
  EngineSession other(shared, serialOptions());
  expectSame(plain, other.autoLowerBound(p, options), what + " (shared)");
  EXPECT_EQ(other.stats().autoboundHits, 1u) << what;
}

TEST(AutoboundMemo, WarmMatchesFreshOnThePopularSet) {
  AutoLowerBoundOptions options;
  options.maxSteps = 3;
  options.maxLabels = 10;
  int i = 0;
  for (const Problem& p : popularSet()) {
    expectWarmMatchesFresh(p, options, "popular #" + std::to_string(i++));
  }
}

TEST(AutoboundMemo, WarmMatchesFreshOnTheBuiltinFamilies) {
  const family::DeriveOptions derive;
  AutoLowerBoundOptions options;
  options.maxSteps = derive.maxSteps;
  options.maxLabels = derive.autoboundMaxLabels;
  for (const family::FamilyDef& def : family::builtinFamilies()) {
    const Problem p =
        family::instantiate(def, family::resolveParams(def, {}));
    expectWarmMatchesFresh(p, options, def.name);
  }
}

TEST(AutoboundMemo, WarmMatchesFreshOnRandomProblems) {
  std::mt19937 rng(20261017);
  gen::RandomProblemOptions generator;
  generator.maxAlphabet = 4;
  generator.maxDelta = 3;
  AutoLowerBoundOptions options;
  options.maxSteps = 2;
  options.maxLabels = 4;  // small, so the merge search actually runs
  for (int i = 0; i < 24; ++i) {
    expectWarmMatchesFresh(gen::randomProblem(rng, generator), options,
                           "random #" + std::to_string(i));
  }
}

TEST(AutoboundMemo, EveryKeyFieldSeparatesEntries) {
  auto core = std::make_shared<EngineCore>();
  const Problem p = misProblem(3);
  AutoLowerBoundOptions options;
  options.maxSteps = 2;
  options.maxLabels = 6;

  EngineSession base(core);
  const AutoLowerBound first = base.autoLowerBound(p, options);
  (void)base.autoLowerBound(p, options);
  EXPECT_EQ(base.stats().autoboundMisses, 1u);
  EXPECT_EQ(base.stats().autoboundHits, 1u);

  // The fan-out width does not change the result, so it shares the entry.
  StepOptions wide;
  wide.numThreads = 4;
  EngineSession wideSession(core, wide);
  expectSame(first, wideSession.autoLowerBound(p, options), "numThreads");
  EXPECT_EQ(wideSession.stats().autoboundHits, 1u);

  const auto expectMiss = [&](const AutoLowerBoundOptions& o,
                              const StepOptions& session, const char* what) {
    EngineSession s(core, session);
    expectSame(EngineSession(nullptr, session).autoLowerBound(p, o),
               s.autoLowerBound(p, o), what);
    EXPECT_EQ(s.stats().autoboundMisses, 1u) << what;
    EXPECT_EQ(s.stats().autoboundHits, 0u) << what;
  };
  AutoLowerBoundOptions steps = options;
  steps.maxSteps = 1;
  expectMiss(steps, {}, "maxSteps");
  AutoLowerBoundOptions labels = options;
  labels.maxLabels = 5;
  expectMiss(labels, {}, "maxLabels");
  StepOptions delta;
  delta.maxRbarDelta = 7;
  expectMiss(options, delta, "maxRbarDelta");
  StepOptions limit;
  limit.enumerationLimit = 1'000'000;
  expectMiss(options, limit, "enumerationLimit");
}

std::uint64_t spanCount(const obs::SpanAggregator& spans,
                        const std::string& name) {
  for (const auto& [n, totals] : spans.totals()) {
    if (n == name) return totals.count;
  }
  return 0;
}

TEST(AutoboundMemo, CountersAndSpansLandInTheSessionScope) {
  obs::Registry registry;
  obs::Tracer tracer;
  const auto spans = std::make_shared<obs::SpanAggregator>();
  tracer.addSink(spans);
  auto core = std::make_shared<EngineCore>();
  obs::SessionScope scope("autobound", &registry, &tracer);
  EngineSession session(core, {}, &scope);
  AutoLowerBoundOptions options;
  options.maxSteps = 2;
  options.maxLabels = 6;  // the second step's output needs merging

  (void)session.autoLowerBound(misProblem(3), options);
  EXPECT_EQ(scope.registry().counter("engine.autobound.miss").value(), 1u);
  EXPECT_EQ(spanCount(*spans, "engine.autobound"), 1u);
  const std::uint64_t merges = spanCount(*spans, "re.autobound.merge");
  EXPECT_GE(merges, 1u);

  // The warm repeat is one lookup: no merge search, no step traffic.
  const CacheStats before = session.stats();
  (void)session.autoLowerBound(misProblem(3), options);
  EXPECT_EQ(scope.registry().counter("engine.autobound.hit").value(), 1u);
  EXPECT_EQ(spanCount(*spans, "engine.autobound"), 2u);
  EXPECT_EQ(spanCount(*spans, "re.autobound.merge"), merges);
  const CacheStats after = session.stats();
  EXPECT_EQ(after.autoboundHits, before.autoboundHits + 1);
  EXPECT_EQ(after.stepHits, before.stepHits);
  EXPECT_EQ(after.zeroRoundHits, before.zeroRoundHits);
  EXPECT_EQ(core->stats().autoboundMisses, 1u);
}

TEST(AutoboundMemo, RacingSessionsOverOneCoreAgree) {
  const Problem p = parseSpec("M^3; P O^2", "M [P O]; O O");
  AutoLowerBoundOptions options;
  options.maxSteps = 3;
  options.maxLabels = 10;
  const AutoLowerBound reference =
      EngineSession(nullptr, serialOptions()).autoLowerBound(p, options);

  constexpr int kSessions = 8;
  auto core = std::make_shared<EngineCore>();
  std::vector<AutoLowerBound> results(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      EngineSession session(core, serialOptions());
      results[static_cast<std::size_t>(i)] = session.autoLowerBound(p, options);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    expectSame(reference, results[static_cast<std::size_t>(i)],
               "session " + std::to_string(i));
  }
  const CacheStats total = core->stats();
  EXPECT_EQ(total.autoboundHits + total.autoboundMisses,
            static_cast<std::size_t>(kSessions));
  EXPECT_GE(total.autoboundMisses, 1u);
}

// -- Step refusals -------------------------------------------------------------

std::string refusalOf(EngineSession& session, const Problem& p) {
  try {
    (void)session.applyRbar(p);
  } catch (const Error& e) {
    return e.what();
  }
  return "(no refusal)";
}

std::string freeRefusalOf(const Problem& p, const StepOptions& options) {
  try {
    (void)applyRbar(p, options);
  } catch (const Error& e) {
    return e.what();
  }
  return "(no refusal)";
}

/// Seventeen labels, all equally strong: R-bar's right-closed sets are
/// cheap, and the packed-word guard (<= 16 labels) is the one that trips.
Problem seventeenLabels() {
  const std::string all = "[A B C D E F G H I J K L M N O P Q]";
  return Problem::parse(all + "^2", all + "^2");
}

TEST(StepRefusal, ReplayRethrowsTheIdenticalMessage) {
  // One input per R-bar guard, in the order the guards run: the degree
  // guard, the strength computation's enumeration limit (it runs when the
  // right-closed sets are fetched) and the packed-word guard.  The free
  // function, a cold session and its replay must all throw the same text.
  StepOptions tight;
  tight.maxRbarDelta = 2;  // delta 3 trips the R-bar degree guard
  StepOptions limit;
  limit.enumerationLimit = 1;  // MIS's node constraint has two words
  const struct {
    const char* guard;
    Problem problem;
    StepOptions options;
    const char* text;
  } cases[] = {
      {"degree", misProblem(3), tight, "node degree too large"},
      {"enumeration limit", misProblem(3), limit, "exceeds limit"},
      {"packed words", seventeenLabels(), {}, "packed-word enumeration"},
  };
  auto core = std::make_shared<EngineCore>();
  for (const auto& c : cases) {
    const std::string expected = freeRefusalOf(c.problem, c.options);
    EXPECT_NE(expected.find(c.text), std::string::npos)
        << c.guard << ": " << expected;
    EngineSession session(core, c.options);
    EXPECT_EQ(refusalOf(session, c.problem), expected) << c.guard;
    EXPECT_EQ(session.stats().stepMisses, 1u) << c.guard;
    EXPECT_EQ(session.stats().stepHits, 0u) << c.guard;
    EXPECT_EQ(refusalOf(session, c.problem), expected) << c.guard;
    EXPECT_EQ(session.stats().stepMisses, 1u) << c.guard;
    EXPECT_EQ(session.stats().stepHits, 1u) << c.guard;
  }

  // The refusal belongs to its guards: a session with the default guards
  // over the same core computes the step instead of replaying it.
  const Problem p = misProblem(3);
  EngineSession session(core, tight);
  EngineSession roomy(core);
  const StepResult computed = roomy.applyRbar(p);
  EXPECT_EQ(computed.problem, applyRbar(p).problem);
  EXPECT_EQ(roomy.stats().stepMisses, 1u);
  EXPECT_EQ(refusalOf(session, p), freeRefusalOf(p, tight));
  EXPECT_EQ(session.stats().stepHits, 1u);
}

}  // namespace
}  // namespace relb::re
