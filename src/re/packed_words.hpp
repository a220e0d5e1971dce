// Packed enumeration of constraint languages.
//
// Words of degree <= 15 pack 4 bits per label: over <= 16 labels into one
// kernels::PackedWord (uint64), over <= 32 labels into one
// kernels::WidePackedWord (unsigned __int128).  collectPackedWords
// enumerates a constraint's distinct words directly in either encoding --
// no per-word std::vector<Count>, no std::set<Word> -- by emitting every
// choice of the per-group multiset recursion raw and deduplicating
// wholesale with sort+unique.  Configurations whose raw emission count (the
// countWordsUpperBound product) exceeds the limit fall back to the
// deduplicating Configuration::forEachWord.  Shared by the R̄ sweep
// (re_step.cpp, 64-bit words) and the strength-relation fast path
// (diagram.cpp, both widths).
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "re/bitkernels.hpp"
#include "re/constraint.hpp"

namespace relb::re::kernels {

/// A multiset of <= 32 labels with per-label counts <= 15: PackedWord's
/// encoding (label l in bits [4l, 4l+4)) widened to 128 bits.
__extension__ typedef unsigned __int128 WidePackedWord;

/// Packs `w` (per-label counts <= 15, w.size() labels fitting `W`).
template <typename W>
[[nodiscard]] W packWord(const Word& w) {
  W packed = 0;
  for (std::size_t l = 0; l < w.size(); ++l) {
    packed |= static_cast<W>(w[l]) << (4 * l);
  }
  return packed;
}

/// Emits every word of `c` in packed form, one emission per choice of the
/// per-group multiset recursion (duplicates possible across choices; the
/// caller sorts and deduplicates).  The emission count is exactly
/// c.countWordsUpperBound, which the caller must bound beforehand.  Requires
/// labels < 4 * sizeof(W) and degree <= 15 (nibble range), which the
/// callers' guards establish.
template <typename W>
void emitPackedWords(const Configuration& c, std::vector<W>& out) {
  const auto& groups = c.groups();
  W acc = 0;
  const auto perGroup = [&](const auto& self, std::size_t idx) -> void {
    if (idx == groups.size()) {
      out.push_back(acc);
      return;
    }
    const auto labels = groups[idx].set.toVector();
    const auto multiset = [&](const auto& mself, Count left,
                              std::size_t li) -> void {
      if (li + 1 == labels.size()) {
        acc += static_cast<W>(left) << (4 * labels[li]);
        self(self, idx + 1);
        acc -= static_cast<W>(left) << (4 * labels[li]);
        return;
      }
      for (Count take = 0; take <= left; ++take) {
        acc += static_cast<W>(take) << (4 * labels[li]);
        mself(mself, left - take, li + 1);
        acc -= static_cast<W>(take) << (4 * labels[li]);
      }
    };
    multiset(multiset, groups[idx].count, 0);
  };
  perGroup(perGroup, 0);
}

/// The distinct words of `constraint`, packed into `W` and sorted
/// ascending.  The word set, the distinct-count limit, and the Error on
/// exceeding it match Constraint::enumerateWords exactly.  Requires
/// alphabetSize <= 4 * sizeof(W) and degree <= 15.
template <typename W = PackedWord>
[[nodiscard]] std::vector<W> collectPackedWords(const Constraint& constraint,
                                                int alphabetSize,
                                                std::size_t limit) {
  assert(alphabetSize <= static_cast<int>(4 * sizeof(W)) &&
         constraint.degree() <= 15);
  std::vector<W> words;
  const auto compact = [&] {
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    if (words.size() > limit) {
      throw Error("enumerateWords: word count exceeds limit");
    }
  };
  for (const auto& c : constraint.configurations()) {
    // Same guard (and Error) as forEachWord; also keeps every label below
    // alphabetSize, so the nibble shifts in emitPackedWords stay in range.
    if (!c.support().subsetOf(LabelSet::full(alphabetSize))) {
      throw Error(
          "forEachWord: configuration mentions labels outside alphabet");
    }
    if (c.countWordsUpperBound(limit + 1) <= limit) {
      emitPackedWords(c, words);
      if (words.size() > limit) compact();
      continue;
    }
    // forEachWord deduplicates within c only; keep just the words the
    // collection has not seen, so the global distinct count crosses the
    // limit at the same word (and with the same Error) as in
    // enumerateWords.
    compact();
    const std::size_t known = words.size();
    c.forEachWord(
        alphabetSize,
        [&](const Word& w) {
          const W packed = packWord<W>(w);
          const auto seen =
              words.begin() + static_cast<std::ptrdiff_t>(known);
          if (std::binary_search(words.begin(), seen, packed)) return;
          words.push_back(packed);
          if (words.size() > limit) {
            throw Error("enumerateWords: word count exceeds limit");
          }
        },
        limit);
  }
  compact();
  return words;
}

}  // namespace relb::re::kernels
