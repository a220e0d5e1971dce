// Differential oracles for the speedup operators.
//
//   * Rbar promises bit-identical results for every StepOptions::numThreads;
//     the suite compares serial against 2- and 8-lane runs (including
//     agreement on *throwing*, since Rbar rejects problems whose node
//     constraint maximizes to nothing).  R reads no option, so its paths are
//     compared instead: the free operator, a session's computed and
//     memoized step, and the pre-rewrite reference.
//   * The semantic round-elimination invariant on tiny instances: for
//     Delta = 3 problems, Pi is 1-round solvable on high-girth trees iff
//     Rbar(R(Pi)) is 0-round solvable (Brandt's speedup, checked against the
//     independent brute-force CSP in tree_verifier.hpp).
#include <gtest/gtest.h>

#include <optional>

#include "prop/prop.hpp"
#include "prop/reference_step.hpp"
#include "re/engine.hpp"
#include "re/re_step.hpp"
#include "re/tree_verifier.hpp"

namespace relb {
namespace {

// Runs `fn()` capturing the thrown-Error outcome, so "both throw" and "both
// produce identical results" are comparable verdicts.
template <typename Fn>
std::optional<re::StepResult> tryStep(Fn&& fn) {
  try {
    return fn();
  } catch (const re::Error&) {
    return std::nullopt;
  }
}

std::string compareAcrossThreads(const re::Problem& p) {
  std::optional<re::StepResult> serial;
  for (const int threads : {1, 2, 8}) {
    re::StepOptions options;
    options.numThreads = threads;
    const auto result = tryStep([&] { return re::applyRbar(p, options); });
    if (threads == 1) {
      serial = result;
      continue;
    }
    if (result.has_value() != serial.has_value()) {
      return "numThreads=" + std::to_string(threads) +
             " disagrees with serial on throwing";
    }
    if (result &&
        !(result->problem == serial->problem &&
          result->meaning == serial->meaning)) {
      return "numThreads=" + std::to_string(threads) +
             " result differs from serial";
    }
  }
  return {};
}

TEST(PropStep, ApplyRAgreesAcrossFreeAndMemoizedPaths) {
  // The session is asked twice, and a second session over the same core
  // once: the first answer is computed, the other two are the memo's.
  prop::forAllProblems(
      {.name = "step-r-paths", .gen = {}, .baseSeed = 31000},
      [](const re::Problem& p, std::mt19937&) -> std::string {
        const auto reference = tryStep([&] { return refimpl::applyR(p); });
        auto core = std::make_shared<re::EngineCore>();
        re::EngineSession session(core);
        re::EngineSession other(core);
        const std::pair<const char*, std::optional<re::StepResult>> paths[] = {
            {"free applyR", tryStep([&] { return re::applyR(p); })},
            {"session applyR", tryStep([&] { return session.applyR(p); })},
            {"memoized applyR", tryStep([&] { return session.applyR(p); })},
            {"shared-core applyR", tryStep([&] { return other.applyR(p); })}};
        for (const auto& [name, result] : paths) {
          if (result.has_value() != reference.has_value()) {
            return std::string(name) + " disagrees with the reference on "
                                       "throwing";
          }
          if (result && !(result->problem == reference->problem &&
                          result->meaning == reference->meaning)) {
            return std::string(name) + " differs from the reference";
          }
        }
        if (core->stats().stepMisses != 1) {
          return "the memoized paths recomputed the step";
        }
        return {};
      });
}

TEST(PropStep, ApplyRbarIsThreadCountInvariant) {
  // Rbar runs on R's output, like in a real speedup step; R can blow the
  // alphabet up, so cap the Rbar input size to keep the suite fast.
  prop::forAllProblems(
      {.name = "step-rbar-threads",
       .gen = {.maxAlphabet = 4, .maxDelta = 3},
       .baseSeed = 32000},
      [](const re::Problem& p, std::mt19937&) {
        const auto r = tryStep([&] { return re::applyR(p); });
        if (!r || r->problem.alphabet.size() > 6) return std::string{};
        return compareAcrossThreads(r->problem);
      });
}

TEST(PropStep, SpeedupMatchesBruteForceTreeSolvability) {
  prop::forAllProblems(
      {.name = "step-semantics",
       .gen = {.minAlphabet = 2,
               .maxAlphabet = 3,
               .minDelta = 3,
               .maxDelta = 3,
               .maxNodeConfigs = 3,
               .maxEdgeConfigs = 3},
       .baseSeed = 33000},
      [](const re::Problem& p, std::mt19937&) {
        re::Problem sped;
        bool spedUnsolvable = false;
        try {
          sped = re::speedupStep(p);
        } catch (const re::Error&) {
          // Rbar maximized the node constraint to nothing: the speedup
          // claims Pi'' (and so Pi at T >= 1) is unsolvable.
          spedUnsolvable = true;
        }
        // Cases that exhaust the budget count as undecided and are skipped;
        // a small budget keeps the suite fast while still deciding the bulk
        // of the generated instances.
        constexpr long kBudget = 5'000;
        try {
          const bool oneRound = re::treeSolvable3(p, 1, kBudget);
          const bool zeroRound =
              spedUnsolvable ? false : re::treeSolvable3(sped, 0, kBudget);
          if (oneRound != zeroRound) {
            return std::string("treeSolvable3(p,1) = ") +
                   (oneRound ? "true" : "false") +
                   " but treeSolvable3(speedup(p),0) = " +
                   (zeroRound ? "true" : "false");
          }
        } catch (const re::Error&) {
          // Brute-force search budget exceeded: undecided, not a failure.
        }
        return std::string{};
      });
}

}  // namespace
}  // namespace relb
