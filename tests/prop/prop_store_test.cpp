// Persistence oracle: a DiskStepStore warmed by one context must hand a
// *fresh* context bit-identical results without recomputation -- over random
// problems, not just the paper chain the store tests pin.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>

#include "prop/prop.hpp"
#include "re/engine.hpp"
#include "store/step_store.hpp"

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

TEST(PropStore, ColdAndWarmStoreRunsAgreeBitIdentically) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "prop_store";
  std::filesystem::remove_all(root);

  int caseIdx = 0;
  prop::forAllProblems(
      {.name = "store-cold-warm", .gen = {}, .baseSeed = 51000},
      [&](const re::Problem& p, std::mt19937&) {
        // A fresh store per case: generated problems may repeat canonically,
        // and a repeat would turn the "cold" run into a store hit.
        auto store = std::make_shared<store::DiskStepStore>(
            root / std::to_string(caseIdx++));
        re::EngineSession cold;
        cold.attachStore(store);
        const auto written = tryStep([&] { return cold.applyR(p); });
        if (!written) return std::string{};  // R never throws in practice
        if (cold.stats().storeWrites == 0) {
          return std::string("cold run wrote nothing to the store");
        }

        re::EngineSession warm;
        warm.attachStore(store);
        const auto loaded = tryStep([&] { return warm.applyR(p); });
        if (!loaded) {
          return std::string("warm run threw where the cold run succeeded");
        }
        if (!(loaded->problem == written->problem &&
              loaded->meaning == written->meaning)) {
          return std::string("warm store result differs from cold");
        }
        const auto stats = warm.stats();
        if (stats.storeHits == 0 || stats.storeMisses != 0) {
          return "warm run recomputed: " + stats.describe();
        }
        return std::string{};
      });

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace relb
