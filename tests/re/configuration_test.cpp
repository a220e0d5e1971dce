#include "re/configuration.hpp"

#include <gtest/gtest.h>

#include <set>

namespace relb::re {
namespace {

Configuration cfg(std::vector<Group> groups) {
  return Configuration(std::move(groups));
}

TEST(Configuration, NormalizationMergesAndSorts) {
  const auto c = cfg({{LabelSet{1}, 2}, {LabelSet{0}, 1}, {LabelSet{1}, 3}});
  ASSERT_EQ(c.groups().size(), 2u);
  EXPECT_EQ(c.groups()[0].set, LabelSet{0});
  EXPECT_EQ(c.groups()[0].count, 1);
  EXPECT_EQ(c.groups()[1].set, LabelSet{1});
  EXPECT_EQ(c.groups()[1].count, 5);
  EXPECT_EQ(c.degree(), 6);
}

TEST(Configuration, RejectsBadGroups) {
  EXPECT_THROW(cfg({{LabelSet{}, 1}}), Error);
  EXPECT_THROW(cfg({{LabelSet{0}, -1}}), Error);
}

TEST(Configuration, ZeroCountGroupsDropped) {
  const auto c = cfg({{LabelSet{0}, 0}, {LabelSet{1}, 2}});
  EXPECT_EQ(c.groups().size(), 1u);
}

TEST(Configuration, Support) {
  const auto c = cfg({{LabelSet{0, 2}, 1}, {LabelSet{1}, 1}});
  EXPECT_EQ(c.support(), (LabelSet{0, 1, 2}));
}

TEST(Configuration, MatchesWordSimple) {
  // [AB]^2 [C]^1 over alphabet {A=0, B=1, C=2}.
  const auto c = cfg({{LabelSet{0, 1}, 2}, {LabelSet{2}, 1}});
  EXPECT_TRUE(c.matchesWord(wordFromLabels({0, 0, 2}, 3)));
  EXPECT_TRUE(c.matchesWord(wordFromLabels({0, 1, 2}, 3)));
  EXPECT_TRUE(c.matchesWord(wordFromLabels({1, 1, 2}, 3)));
  EXPECT_FALSE(c.matchesWord(wordFromLabels({0, 0, 0}, 3)));
  EXPECT_FALSE(c.matchesWord(wordFromLabels({2, 2, 0}, 3)));
  EXPECT_FALSE(c.matchesWord(wordFromLabels({0, 2}, 3)));  // wrong degree
}

TEST(Configuration, MatchesWordNeedsCarefulAssignment) {
  // [AB] [BC] over {A,B,C}: word {A, B} must put A in group 1, B in group 2.
  const auto c = cfg({{LabelSet{0, 1}, 1}, {LabelSet{1, 2}, 1}});
  EXPECT_TRUE(c.matchesWord(wordFromLabels({0, 1}, 3)));
  EXPECT_TRUE(c.matchesWord(wordFromLabels({0, 2}, 3)));
  EXPECT_TRUE(c.matchesWord(wordFromLabels({1, 1}, 3)));
  EXPECT_FALSE(c.matchesWord(wordFromLabels({0, 0}, 3)));
  EXPECT_FALSE(c.matchesWord(wordFromLabels({2, 2}, 3)));
}

TEST(Configuration, MatchesWordHugeExponents) {
  const Count huge = Count{1} << 40;
  // A^huge [AB]^huge.
  const auto c = cfg({{LabelSet{0}, huge}, {LabelSet{0, 1}, huge}});
  Word w(2, 0);
  w[0] = huge;
  w[1] = huge;
  EXPECT_TRUE(c.matchesWord(w));
  w[0] = huge - 1;
  w[1] = huge + 1;
  EXPECT_FALSE(c.matchesWord(w));
  w[0] = 2 * huge;
  w[1] = 0;
  EXPECT_TRUE(c.matchesWord(w));
}

TEST(Configuration, MatchesWordAgreesWithEnumeration) {
  // Cross-check flow-based membership against explicit enumeration.
  const auto c = cfg({{LabelSet{0, 1}, 2}, {LabelSet{1, 2}, 1}, {LabelSet{2}, 1}});
  std::set<Word> enumerated;
  c.forEachWord(3, [&](const Word& w) { enumerated.insert(w); });
  // Walk all words of degree 4 over a 3-letter alphabet.
  for (Count a = 0; a <= 4; ++a) {
    for (Count b = 0; a + b <= 4; ++b) {
      const Count cc = 4 - a - b;
      const Word w{a, b, cc};
      EXPECT_EQ(c.matchesWord(w), enumerated.contains(w))
          << "word " << a << "," << b << "," << cc;
    }
  }
}

TEST(Configuration, IntersectsBasic) {
  const auto c1 = cfg({{LabelSet{0}, 1}, {LabelSet{1}, 1}});   // AB
  const auto c2 = cfg({{LabelSet{0, 1}, 2}});                  // [AB]^2
  const auto c3 = cfg({{LabelSet{2}, 2}});                     // CC
  EXPECT_TRUE(c1.intersects(c2));
  EXPECT_TRUE(c2.intersects(c1));
  EXPECT_FALSE(c1.intersects(c3));
  EXPECT_TRUE(c3.intersects(c3));
}

TEST(Configuration, IntersectsRequiresSameDegree) {
  const auto c1 = cfg({{LabelSet{0}, 1}});
  const auto c2 = cfg({{LabelSet{0}, 2}});
  EXPECT_FALSE(c1.intersects(c2));
}

TEST(Configuration, IntersectsNeedsFlowNotJustSupport) {
  // [AB][AB] vs [A][B]: intersection = {AB}, non-empty.
  const auto c1 = cfg({{LabelSet{0, 1}, 2}});
  const auto c2 = cfg({{LabelSet{0}, 1}, {LabelSet{1}, 1}});
  EXPECT_TRUE(c1.intersects(c2));
  // A^2 vs [AB][B]: supports intersect but no common word.
  const auto c3 = cfg({{LabelSet{0}, 2}});
  const auto c4 = cfg({{LabelSet{0, 1}, 1}, {LabelSet{1}, 1}});
  EXPECT_FALSE(c3.intersects(c4));
}

TEST(Configuration, IntersectsHugeExponents) {
  const Count huge = Count{1} << 40;
  const auto c1 = cfg({{LabelSet{0}, huge}, {LabelSet{1}, huge}});
  const auto c2 = cfg({{LabelSet{0, 1}, 2 * huge}});
  EXPECT_TRUE(c1.intersects(c2));
  const auto c3 = cfg({{LabelSet{2}, 2 * huge}});
  EXPECT_FALSE(c1.intersects(c3));
}

TEST(Configuration, RelaxesTo) {
  // A B relaxes to [AB] [AB] but not vice versa.
  const auto narrow = cfg({{LabelSet{0}, 1}, {LabelSet{1}, 1}});
  const auto wide = cfg({{LabelSet{0, 1}, 2}});
  EXPECT_TRUE(narrow.relaxesTo(wide));
  EXPECT_FALSE(wide.relaxesTo(narrow));
  EXPECT_TRUE(narrow.relaxesTo(narrow));
}

TEST(Configuration, RelaxesToNeedsMatching) {
  // [AB][C] relaxes to [ABC][ABC] and to [AB][C] but not to [AB][AB].
  const auto c = cfg({{LabelSet{0, 1}, 1}, {LabelSet{2}, 1}});
  EXPECT_TRUE(c.relaxesTo(cfg({{LabelSet{0, 1, 2}, 2}})));
  EXPECT_FALSE(c.relaxesTo(cfg({{LabelSet{0, 1}, 2}})));
}

TEST(Configuration, RelaxationImpliesLanguageInclusion) {
  const auto c = cfg({{LabelSet{0}, 2}, {LabelSet{1, 2}, 1}});
  const auto d = cfg({{LabelSet{0, 1}, 2}, {LabelSet{1, 2}, 1}});
  ASSERT_TRUE(c.relaxesTo(d));
  c.forEachWord(3, [&](const Word& w) { EXPECT_TRUE(d.matchesWord(w)); });
}

TEST(Configuration, ContainsAllWordsOfExactFallback) {
  // L({B}{AC}) = {BA, BC} is contained in L([AB][BC]) = {AB,AC,BB,BC}
  // even though no groupwise embedding exists.
  const auto inner = cfg({{LabelSet{1}, 1}, {LabelSet{0, 2}, 1}});
  const auto outer = cfg({{LabelSet{0, 1}, 1}, {LabelSet{1, 2}, 1}});
  EXPECT_FALSE(inner.relaxesTo(outer));
  EXPECT_TRUE(outer.containsAllWordsOf(inner));
  EXPECT_FALSE(inner.containsAllWordsOf(outer));
}

TEST(Configuration, ContainsAllWordsOfHugeExponents) {
  // The same shape as above at N = 2^40 slots per group: far beyond any
  // enumeration, decided by Hall's condition alone.
  constexpr Count kN = Count{1} << 40;
  const auto inner = cfg({{LabelSet{1}, kN}, {LabelSet{0, 2}, kN}});
  const auto outer = cfg({{LabelSet{0, 1}, kN}, {LabelSet{1, 2}, kN}});
  EXPECT_FALSE(inner.relaxesTo(outer));
  EXPECT_TRUE(outer.containsAllWordsOf(inner));
  EXPECT_FALSE(inner.containsAllWordsOf(outer));
  // One slot fewer on the shared label breaks inclusion: B^(N-1) A [AC]^N
  // has a word with N+1 A's, but [AB]^N [BC]^N holds at most N.
  const auto shifted =
      cfg({{LabelSet{1}, kN - 1}, {LabelSet{0}, 1}, {LabelSet{0, 2}, kN}});
  EXPECT_FALSE(outer.containsAllWordsOf(shifted));
}

TEST(Configuration, ForEachWordDeduplicates) {
  // [AB][AB]: words AA, AB, BB -> exactly 3 distinct words.
  const auto c = cfg({{LabelSet{0, 1}, 2}});
  int count = 0;
  c.forEachWord(2, [&](const Word&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(Configuration, ForEachWordLimitEnforced) {
  const auto c = cfg({{LabelSet{0, 1, 2}, 10}});
  EXPECT_THROW(c.forEachWord(3, [](const Word&) {}, 5), Error);
}

TEST(Configuration, CountWords) {
  const auto c = cfg({{LabelSet{0, 1}, 2}, {LabelSet{2}, 1}});
  EXPECT_EQ(c.countWords(3, 100), 3u);
}

TEST(Configuration, FromWordRoundTrip) {
  const Word w = wordFromLabels({0, 0, 2}, 3);
  const auto c = Configuration::fromWord(w);
  EXPECT_EQ(c.degree(), 3);
  EXPECT_TRUE(c.matchesWord(w));
  int count = 0;
  c.forEachWord(3, [&](const Word&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Configuration, RenderReadable) {
  Alphabet a({"M", "P", "O"});
  const auto c = cfg({{LabelSet{0}, 3}, {LabelSet{1, 2}, 1}});
  EXPECT_EQ(c.render(a), "M^3 [PO]");
}

}  // namespace
}  // namespace relb::re
