#include "re/alphabet.hpp"

#include <gtest/gtest.h>

namespace relb::re {
namespace {

TEST(Alphabet, AddAndLookup) {
  Alphabet a;
  EXPECT_EQ(a.add("M"), 0);
  EXPECT_EQ(a.add("P"), 1);
  EXPECT_EQ(a.size(), 2);
  EXPECT_EQ(a.at("M"), 0);
  EXPECT_EQ(a.at("P"), 1);
  EXPECT_EQ(a.name(0), "M");
  EXPECT_FALSE(a.find("O").has_value());
  EXPECT_THROW((void)a.at("O"), Error);
}

TEST(Alphabet, RejectsDuplicatesAndEmptyNames) {
  Alphabet a;
  a.add("M");
  EXPECT_THROW(a.add("M"), Error);
  EXPECT_THROW(a.add(""), Error);
}

TEST(Alphabet, GetOrAddIsIdempotent) {
  Alphabet a;
  EXPECT_EQ(a.getOrAdd("X"), 0);
  EXPECT_EQ(a.getOrAdd("X"), 0);
  EXPECT_EQ(a.size(), 1);
}

TEST(Alphabet, OverflowRejected) {
  Alphabet a;
  for (int i = 0; i < kMaxLabels; ++i) a.add("L" + std::to_string(i));
  EXPECT_THROW(a.add("Overflow"), Error);
}

TEST(Alphabet, RenderSingleAndSets) {
  Alphabet a({"M", "P", "O"});
  EXPECT_EQ(a.render(LabelSet{0}), "M");
  EXPECT_EQ(a.render(LabelSet{1, 2}), "[PO]");
  EXPECT_EQ(a.render(LabelSet{}), "[]");
}

TEST(Alphabet, RenderMultiCharNamesWithSpaces) {
  Alphabet a({"M1", "P"});
  EXPECT_EQ(a.render(LabelSet{0, 1}), "[M1 P]");
}

TEST(Alphabet, VectorConstructor) {
  const Alphabet a({"A", "B"});
  EXPECT_EQ(a.size(), 2);
  EXPECT_EQ(a.at("B"), 1);
}

TEST(Alphabet, WithoutEqualsTheAlphabetRebuiltThroughAdd) {
  const Alphabet a({"M", "P1", "(O U)", "X", "long_name", "Q"});
  for (Label b = 0; b < a.size(); ++b) {
    Alphabet rebuilt;
    for (Label l = 0; l < a.size(); ++l) {
      if (l != b) rebuilt.add(a.name(l));
    }
    Alphabet without = a.without(b);
    EXPECT_EQ(without, rebuilt) << "b=" << int{b};
    // The index is shifted with the names, so lookups agree too.
    for (Label l = 0; l < rebuilt.size(); ++l) {
      EXPECT_EQ(without.find(rebuilt.name(l)), l) << "b=" << int{b};
    }
    EXPECT_EQ(without.find(a.name(b)), std::nullopt) << "b=" << int{b};
    EXPECT_EQ(without.add(a.name(b)), rebuilt.add(a.name(b)));
  }
  EXPECT_THROW((void)a.without(6), Error);
}

}  // namespace
}  // namespace relb::re
