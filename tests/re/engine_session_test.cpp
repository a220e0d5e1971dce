// The EngineCore / EngineSession split (engine.hpp): many sessions sharing
// one core from many threads produce results bit-identical to a serial
// single-session run and to the free functions, per-session statistics and
// scope counters attribute work to the session that asked for it, chain
// certificates built through concurrent shared-core sessions serialize to
// the same bytes as a serial build, and default sessions share nothing.
// This suite runs under TSan in CI (the concurrency job) -- keep every
// cross-thread interaction data-race-free by construction.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/family.hpp"
#include "core/sequence.hpp"
#include "gen/random_problem.hpp"
#include "io/certificate.hpp"
#include "obs/scope.hpp"
#include "re/engine.hpp"
#include "re/problem.hpp"

namespace relb::re {
namespace {

constexpr int kSessions = 8;

std::vector<Problem> randomTestbed(std::size_t count) {
  std::mt19937 rng(20260807);
  gen::RandomProblemOptions options;
  options.maxAlphabet = 4;
  options.maxDelta = 3;
  std::vector<Problem> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(gen::randomProblem(rng, options));
  }
  return out;
}

void expectProblemsBitIdentical(const Problem& a, const Problem& b,
                                const std::string& what) {
  EXPECT_EQ(a.alphabet.names(), b.alphabet.names()) << what;
  EXPECT_EQ(a.node, b.node) << what;
  EXPECT_EQ(a.edge, b.edge) << what;
}

TEST(EngineSession, ConcurrentSessionsMatchSerialBitForBit) {
  const std::vector<Problem> problems = randomTestbed(12);
  // Full speedup steps through a second session per lane: even lanes fan
  // their R and R-bar sections out into the shared thread pool (width 0),
  // odd lanes run the serial R-bar sweep in their session's own arena
  // (width 1), all racing on the one core.
  const std::vector<Problem> stepProblems = {
      misProblem(3), sinklessOrientationProblem(3),
      core::familyProblem(4, 2, 1)};
  std::vector<Problem> serialStep;
  for (const Problem& p : stepProblems) serialStep.push_back(speedupStep(p));

  // Serial reference: one standalone session, cold core.
  std::vector<StepResult> serialR;
  std::vector<bool> serialZero;
  {
    EngineSession serial;
    for (const Problem& p : problems) {
      serialR.push_back(serial.applyR(p));
      serialZero.push_back(
          serial.zeroRoundSolvable(p, ZeroRoundMode::kSymmetricPorts));
    }
  }

  // kSessions plain std::threads, each with its own session and scope over
  // ONE shared core, all hammering the same problems concurrently.
  auto core = std::make_shared<EngineCore>();
  std::vector<std::vector<StepResult>> gotR(kSessions);
  std::vector<std::vector<bool>> gotZero(kSessions);
  std::vector<std::vector<Problem>> gotStep(kSessions);
  std::vector<std::size_t> lookups(kSessions);
  {
    std::vector<obs::SessionScope> scopes(kSessions);
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        EngineSession session(core, PassOptions{}, &scopes[s]);
        for (const Problem& p : problems) {
          gotR[s].push_back(session.applyR(p));
          gotZero[s].push_back(
              session.zeroRoundSolvable(p, ZeroRoundMode::kSymmetricPorts));
        }
        PassOptions stepOptions;
        stepOptions.numThreads = s % 2 == 0 ? 0 : 1;
        EngineSession stepSession(core, stepOptions, &scopes[s]);
        for (const Problem& p : stepProblems) {
          gotStep[s].push_back(stepSession.speedupStep(p));
        }
        const CacheStats stats = session.stats();
        const CacheStats stepStats = stepSession.stats();
        // Every lookup a session made is attributed to it, whoever
        // computed the entry: one R lookup per problem, an R and an R-bar
        // lookup per step.
        EXPECT_EQ(stats.stepHits + stats.stepMisses, problems.size());
        EXPECT_EQ(stepStats.stepHits + stepStats.stepMisses,
                  2 * stepProblems.size());
        EXPECT_EQ(stats.zeroRoundHits + stats.zeroRoundMisses,
                  problems.size());
        const std::size_t stepLookups =
            problems.size() + 2 * stepProblems.size();
        // The lane's scope registry saw both sessions' traffic.
        const obs::Registry::Snapshot snap = scopes[s].snapshot();
        std::uint64_t memo = 0, zero = 0;
        for (const auto& [name, value] : snap.counters) {
          if (name == "engine.memo.hit" || name == "engine.memo.miss") {
            memo += value;
          }
          if (name == "engine.zero_round.hit" ||
              name == "engine.zero_round.miss") {
            zero += value;
          }
        }
        EXPECT_EQ(memo, stepLookups);
        EXPECT_EQ(zero, problems.size());
        lookups[s] = stats.stepHits + stats.stepMisses + stepStats.stepHits +
                     stepStats.stepMisses;
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(gotR[s].size(), problems.size()) << "session " << s;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const std::string what =
          "session " + std::to_string(s) + " problem " + std::to_string(i);
      expectProblemsBitIdentical(serialR[i].problem, gotR[s][i].problem,
                                 what);
      EXPECT_EQ(serialR[i].meaning, gotR[s][i].meaning) << what;
      EXPECT_EQ(serialZero[i], gotZero[s][i]) << what;
    }
    ASSERT_EQ(gotStep[s].size(), stepProblems.size()) << "session " << s;
    for (std::size_t i = 0; i < stepProblems.size(); ++i) {
      expectProblemsBitIdentical(
          serialStep[i], gotStep[s][i],
          "session " + std::to_string(s) + " step " + std::to_string(i));
    }
  }

  // The core aggregate is the sum of the sessions' attributed views, and
  // every distinct problem was computed at most once per operator (misses
  // <= problems; two sessions may race to compute the same key, so exact
  // equality is not guaranteed -- but lookups must balance).
  const CacheStats total = core->stats();
  std::size_t sessionLookups = 0;
  for (const std::size_t n : lookups) sessionLookups += n;
  EXPECT_EQ(total.stepHits + total.stepMisses, sessionLookups);
}

TEST(EngineSession, StatsAttributeToTheSessionThatAsked) {
  auto core = std::make_shared<EngineCore>();
  const Problem p = core::familyProblem(4, 2, 1);

  EngineSession first(core);
  (void)first.speedupStep(p);
  const CacheStats firstStats = first.stats();
  EXPECT_EQ(firstStats.stepMisses, 2u);  // applyR + applyRbar
  EXPECT_EQ(firstStats.stepHits, 0u);

  EngineSession second(core);
  (void)second.speedupStep(p);
  const CacheStats secondStats = second.stats();
  EXPECT_EQ(secondStats.stepHits, 2u);  // served from the first's work
  EXPECT_EQ(secondStats.stepMisses, 0u);
  // The first session's view is untouched by the second's traffic.
  EXPECT_EQ(first.stats().stepHits, 0u);

  const CacheStats total = core->stats();
  EXPECT_EQ(total.stepHits, 2u);
  EXPECT_EQ(total.stepMisses, 2u);

  // Session-local reset leaves the aggregate alone.
  second.resetStats();
  EXPECT_EQ(second.stats().stepHits, 0u);
  EXPECT_EQ(core->stats().stepHits, 2u);
}

TEST(EngineSession, ConcurrentChainCertificatesMatchSerialBytes) {
  const core::Chain chain = core::exactChain(24, 1);

  const std::string serialBytes = [&] {
    EngineSession serial;
    return io::certificateToJson(
               core::buildChainCertificate(chain, &serial, 1))
        .dump();
  }();

  auto shared = std::make_shared<EngineCore>();
  std::vector<std::string> bytes(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      EngineSession session(shared, PassOptions{});
      bytes[s] = io::certificateToJson(
                     core::buildChainCertificate(chain, &session, 1))
                     .dump();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(bytes[s], serialBytes) << "session " << s;
  }
}

TEST(EngineSession, DefaultSessionsShareNothing) {
  // A default-constructed session owns a private core and its own arena.
  const Problem p = core::familyProblem(4, 2, 1);
  EngineSession a;
  EngineSession b;
  EXPECT_NE(&a.core(), &b.core());
  ASSERT_NE(a.options().arena, nullptr);
  ASSERT_NE(b.options().arena, nullptr);
  EXPECT_NE(a.options().arena, b.options().arena);
  (void)a.speedupStep(p);
  (void)b.speedupStep(p);
  EXPECT_EQ(a.stats().stepMisses, 2u);
  EXPECT_EQ(b.stats().stepMisses, 2u);  // no sharing happened
  EXPECT_EQ(b.stats().stepHits, 0u);
}

}  // namespace
}  // namespace relb::re
