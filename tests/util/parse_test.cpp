#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace relb::util {
namespace {

TEST(ParseNumber, AcceptsWholeTokens) {
  std::uint64_t big = 0;
  EXPECT_TRUE(parseNumber("18446744073709551615", big));
  EXPECT_EQ(big, ~std::uint64_t{0});
  int threads = 0;
  EXPECT_TRUE(parseNumber("-1", threads));
  EXPECT_EQ(threads, -1);
  std::uint32_t degree = 7;
  EXPECT_TRUE(parseNumber("0", degree));
  EXPECT_EQ(degree, 0u);
}

TEST(ParseNumber, RejectsTrailingCharactersAndEmptyTokens) {
  std::uint64_t nodes = 5;
  EXPECT_FALSE(parseNumber("1000abc", nodes));
  EXPECT_FALSE(parseNumber("", nodes));
  EXPECT_FALSE(parseNumber(" 1", nodes));
  int threads = 5;
  EXPECT_FALSE(parseNumber("2x", threads));
}

TEST(ParseNumber, RejectsSignsOnUnsignedAndOutOfRange) {
  std::uint64_t seed = 5;
  EXPECT_FALSE(parseNumber("-1", seed));
  EXPECT_FALSE(parseNumber("+1", seed));
  EXPECT_FALSE(parseNumber("18446744073709551616", seed));
  std::uint32_t degree = 5;
  EXPECT_FALSE(parseNumber("4294967300", degree));
}

}  // namespace
}  // namespace relb::util
