// Differential oracle for single-configuration language inclusion.
//
// Configuration::containsAllWordsOf decides L(other) ⊆ L(this) by Hall's
// condition, without enumerating words.  This suite checks it against the
// definition: enumerate every word of `other` (forEachWord) and test each
// for membership in `this` by max-flow (matchesWord).  Pairs are drawn with
// at most 6 labels and degree at most 5, biased towards near-inclusion, and
// the suite asserts it exercised enough pairs where inclusion holds but no
// groupwise embedding exists (relaxesTo fails) -- the case the closed form
// exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "prop/prop.hpp"
#include "re/alphabet.hpp"
#include "re/configuration.hpp"
#include "support/env_seed.hpp"

namespace relb {
namespace {

using re::Configuration;
using re::Count;
using re::Group;
using re::LabelSet;

bool oracleContains(const Configuration& outer, const Configuration& inner,
                    int alphabetSize) {
  if (outer.degree() != inner.degree()) return false;
  bool all = true;
  inner.forEachWord(alphabetSize, [&](const re::Word& w) {
    if (all && !outer.matchesWord(w)) all = false;
  });
  return all;
}

LabelSet randomSubsetOf(LabelSet from, int maxSize, std::mt19937& rng) {
  auto labels = from.toVector();
  std::shuffle(labels.begin(), labels.end(), rng);
  const int cap = std::min<int>(maxSize, static_cast<int>(labels.size()));
  const int size = std::uniform_int_distribution<int>(1, cap)(rng);
  LabelSet out;
  for (int i = 0; i < size; ++i) out.insert(labels[static_cast<std::size_t>(i)]);
  return out;
}

// One slot set per slot: the expanded form of a configuration.
std::vector<LabelSet> slotsOf(const Configuration& c) {
  std::vector<LabelSet> slots;
  for (const Group& g : c.groups()) {
    for (Count i = 0; i < g.count; ++i) slots.push_back(g.set);
  }
  return slots;
}

Configuration fromSlots(const std::vector<LabelSet>& slots) {
  std::vector<Group> groups;
  for (LabelSet s : slots) groups.push_back({s, 1});
  return Configuration(std::move(groups));
}

// `other` near `outer`.  Refining every slot of `outer` is an embedding, so
// inclusion holds; the exchange move then rewrites two slots S, T of
// `outer` sharing a label x into {x} and a subset of S ∪ T minus x (B [AC]
// from [AB] [BC]), which keeps inclusion but usually destroys every
// embedding.  Widening one slot afterwards makes near misses.
Configuration nearInclusion(const Configuration& outer, std::mt19937& rng) {
  const auto outerSlots = slotsOf(outer);
  auto slots = outerSlots;
  for (LabelSet& s : slots) s = randomSubsetOf(s, 2, rng);
  if (slots.size() >= 2) {
    std::uniform_int_distribution<std::size_t> pick(0, slots.size() - 1);
    const std::size_t i = pick(rng);
    const std::size_t j = (i + 1 + pick(rng) % (slots.size() - 1)) %
                          slots.size();
    const LabelSet shared = outerSlots[i] & outerSlots[j];
    const LabelSet rest = (outerSlots[i] | outerSlots[j]) - shared;
    if (!shared.empty() && !rest.empty()) {
      const LabelSet x = randomSubsetOf(shared, 1, rng);
      slots[i] = x;
      slots[j] = randomSubsetOf((outerSlots[i] | outerSlots[j]) - x, 3, rng);
    }
  }
  if (std::bernoulli_distribution(0.3)(rng)) {
    auto& s = slots[std::uniform_int_distribution<std::size_t>(
        0, slots.size() - 1)(rng)];
    s = s | randomSubsetOf(outer.support(), 1, rng);
  }
  return fromSlots(slots);
}

Configuration randomConfiguration(int alphabetSize, int degree,
                                  std::mt19937& rng) {
  const LabelSet all = LabelSet::full(alphabetSize);
  std::vector<LabelSet> slots(static_cast<std::size_t>(degree));
  // Sets of two or three labels mostly, so slots overlap.
  const auto draw = [&] {
    return randomSubsetOf(all, 2, rng) | randomSubsetOf(all, 1, rng);
  };
  LabelSet previous = draw();
  for (LabelSet& s : slots) {
    // Repeat the previous set half the time so groups get exponents > 1.
    s = std::bernoulli_distribution(0.5)(rng) ? previous : draw();
    previous = s;
  }
  return fromSlots(slots);
}

TEST(PropInclusion, HallCriterionMatchesEnumeration) {
  const int cases = prop::envIterations(4000);
  const unsigned seed = testsupport::effectiveSeed(18000);
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  const re::Alphabet names({"A", "B", "C", "D", "E", "F"});
  int included = 0;
  int includedWithoutEmbedding = 0;
  for (int i = 0; i < cases; ++i) {
    const int alphabetSize = std::uniform_int_distribution<int>(1, 6)(rng);
    const int degree = std::uniform_int_distribution<int>(1, 5)(rng);
    const Configuration outer = randomConfiguration(alphabetSize, degree, rng);
    const Configuration inner =
        std::bernoulli_distribution(0.8)(rng)
            ? nearInclusion(outer, rng)
            : randomConfiguration(alphabetSize, degree, rng);
    for (const auto& [a, b] : {std::pair{&outer, &inner},
                               std::pair{&inner, &outer}}) {
      const bool expected = oracleContains(*a, *b, alphabetSize);
      ASSERT_EQ(a->containsAllWordsOf(*b), expected)
          << "case " << i << ": L(" << b->render(names) << ") in L("
          << a->render(names) << ")";
      if (expected) {
        ++included;
        if (!b->relaxesTo(*a)) ++includedWithoutEmbedding;
      }
    }
  }
  // The hard case must be exercised, not just possible: 4000 cases give
  // about 210 such pairs (and about 4700 inclusions) for every seed tried.
  EXPECT_GE(includedWithoutEmbedding, cases / 40);
  EXPECT_GE(included, cases / 2);
}

TEST(PropInclusion, DegreeMismatchIsNeverInclusion) {
  const auto c = Configuration({{LabelSet{0, 1}, 2}});
  const auto d = Configuration({{LabelSet{0, 1}, 3}});
  EXPECT_FALSE(c.containsAllWordsOf(d));
  EXPECT_FALSE(d.containsAllWordsOf(c));
  EXPECT_TRUE(Configuration().containsAllWordsOf(Configuration()));
}

}  // namespace
}  // namespace relb
