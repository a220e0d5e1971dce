// Whole-token number parsing for command-line arguments.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace relb::util {

/// Reads all of `text` as a base-10 integer: an empty token, a leftover
/// character, an out-of-range value or a sign on an unsigned type is a
/// failure (std::from_chars accepts '-' for signed types only, and '+'
/// never).
template <typename Int>
bool parseNumber(std::string_view text, Int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace relb::util
