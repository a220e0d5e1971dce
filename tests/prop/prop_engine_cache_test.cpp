// Cache-transparency oracles: an EngineSession must be invisible in the
// results -- cached (second call) and uncached (free function) computations
// of the same step are bit-identical, and zero-round verdicts agree between
// the memoized and the direct analyses.
#include <gtest/gtest.h>

#include <optional>

#include "prop/prop.hpp"
#include "re/engine.hpp"
#include "re/zero_round.hpp"

namespace relb {
namespace {

template <typename Fn>
std::optional<re::StepResult> tryStep(Fn&& fn) {
  try {
    return fn();
  } catch (const re::Error&) {
    return std::nullopt;
  }
}

std::string compareSteps(const std::optional<re::StepResult>& a,
                         const std::optional<re::StepResult>& b,
                         const char* what) {
  if (a.has_value() != b.has_value()) {
    return std::string(what) + ": throw/result disagreement";
  }
  if (a && !(a->problem == b->problem && a->meaning == b->meaning)) {
    return std::string(what) + ": results differ";
  }
  return {};
}

TEST(PropEngineCache, ContextAgreesWithFreeFunctionsAndItself) {
  prop::forAllProblems(
      {.name = "engine-cache-step", .gen = {}, .baseSeed = 41000},
      [](const re::Problem& p, std::mt19937&) {
        re::EngineSession ctx;
        const auto direct = tryStep([&] { return re::applyR(p); });
        const auto cold = tryStep([&] { return ctx.applyR(p); });
        const auto warm = tryStep([&] { return ctx.applyR(p); });
        if (auto msg = compareSteps(direct, cold, "cold vs free applyR");
            !msg.empty()) {
          return msg;
        }
        if (auto msg = compareSteps(cold, warm, "warm vs cold applyR");
            !msg.empty()) {
          return msg;
        }
        if (cold && ctx.stats().stepHits == 0) {
          return std::string("second applyR did not hit the step memo");
        }
        return std::string{};
      });
}

TEST(PropEngineCache, ZeroRoundVerdictsAgreeWithDirectAnalyses) {
  prop::forAllProblems(
      {.name = "engine-cache-zero-round", .gen = {}, .baseSeed = 42000},
      [](const re::Problem& p, std::mt19937&) {
        re::EngineSession ctx;
        struct Row {
          re::ZeroRoundMode mode;
          bool direct;
          const char* name;
        };
        const Row rows[] = {
            {re::ZeroRoundMode::kSymmetricPorts,
             re::zeroRoundSolvableSymmetricPorts(p), "symmetric"},
            {re::ZeroRoundMode::kAdversarialPorts,
             re::zeroRoundSolvableAdversarialPorts(p), "adversarial"},
            {re::ZeroRoundMode::kWithEdgeInputs,
             re::zeroRoundSolvableWithEdgeInputs(p), "edge-inputs"},
        };
        for (const Row& row : rows) {
          // Twice: the second lookup exercises the cache path.
          if (ctx.zeroRoundSolvable(p, row.mode) != row.direct ||
              ctx.zeroRoundSolvable(p, row.mode) != row.direct) {
            return std::string("cached ") + row.name +
                   " verdict differs from the direct analysis";
          }
        }
        return std::string{};
      });
}

}  // namespace
}  // namespace relb
