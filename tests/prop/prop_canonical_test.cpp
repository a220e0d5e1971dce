// Metamorphic oracles for canonicalization and interning: renaming labels by
// a random permutation (with fresh, unrelated names) must not change the
// canonical form or its hash, and the engine's intern table must land both
// versions on the same entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "prop/prop.hpp"
#include "re/canonical.hpp"
#include "re/engine.hpp"
#include "re/rename.hpp"

namespace relb {
namespace {

// A random label permutation of `p` with synthetic names "Q<i>", so neither
// the order nor the spelling of the input names can leak into the result.
re::Problem randomPermutation(const re::Problem& p, std::mt19937& rng) {
  std::vector<re::Label> map(static_cast<std::size_t>(p.alphabet.size()));
  std::iota(map.begin(), map.end(), re::Label{0});
  std::shuffle(map.begin(), map.end(), rng);
  std::vector<std::string> names(map.size());
  for (std::size_t old = 0; old < map.size(); ++old) {
    names[map[old]] = "Q" + std::to_string(map[old]);
  }
  return re::renameProblem(p, map, re::Alphabet(names));
}

TEST(PropCanonical, PermutationInvariance) {
  prop::forAllProblems(
      {.name = "canonical-permutation", .gen = {}, .baseSeed = 21000},
      [](const re::Problem& p, std::mt19937& rng) {
        const auto a = re::canonicalize(p);
        const auto b = re::canonicalize(randomPermutation(p, rng));
        if (a.hash != b.hash) {
          return std::string("canonical hashes differ across a permutation");
        }
        if (!(a.problem == b.problem)) {
          return std::string("canonical problems differ across a permutation");
        }
        return std::string{};
      });
}

TEST(PropCanonical, Idempotence) {
  prop::forAllProblems(
      {.name = "canonical-idempotent", .gen = {}, .baseSeed = 22000},
      [](const re::Problem& p, std::mt19937&) {
        const auto once = re::canonicalize(p);
        const auto twice = re::canonicalize(once.problem);
        if (!(twice.problem == once.problem) || twice.hash != once.hash) {
          return std::string("canonicalize is not idempotent");
        }
        return std::string{};
      });
}

TEST(PropCanonical, InternAgreesAcrossPermutations) {
  prop::forAllProblems(
      {.name = "canonical-intern", .gen = {}, .baseSeed = 23000},
      [](const re::Problem& p, std::mt19937& rng) {
        re::EngineSession ctx;
        const auto first = ctx.intern(p);
        const auto second = ctx.intern(randomPermutation(p, rng));
        if (first.alreadyInterned) {
          return std::string("fresh context claims the problem was interned");
        }
        if (!second.alreadyInterned || second.hash != first.hash) {
          return std::string(
              "permuted problem missed the intern entry of the original");
        }
        return std::string{};
      });
}

}  // namespace
}  // namespace relb
