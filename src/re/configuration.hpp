// Condensed configurations: the engine's representation of (collections of)
// node / edge configurations.
//
// A configuration in the round-elimination formalism is a multiset of labels
// of length equal to the degree (Delta for node configurations, 2 for edge
// configurations).  A *condensed* configuration is a list of (label-set,
// exponent) groups, e.g. the paper's  M^{Delta-x} X^x  or  [PQ][OUABPQ]^{Delta-1},
// and denotes the set of all words obtained by picking, for every slot of
// every group, one label from the group's set.  Exponents are 64-bit, so node
// constraints of trees with astronomically large degree stay polynomial-size.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "re/alphabet.hpp"
#include "re/label_set.hpp"
#include "re/types.hpp"

namespace relb::re {

/// A word is a multiset of labels, stored as a per-label count vector whose
/// size is the alphabet size.  The sum of the counts is the word's degree.
using Word = std::vector<Count>;

[[nodiscard]] Count wordDegree(const Word& w);

/// Builds a count vector from an explicit list of labels.
[[nodiscard]] Word wordFromLabels(const std::vector<Label>& labels,
                                  int alphabetSize);

/// One group of a condensed configuration: `count` slots, each of which may
/// hold any label from `set`.
struct Group {
  LabelSet set;
  Count count = 0;

  friend bool operator==(const Group&, const Group&) = default;
  friend bool operator<(const Group& a, const Group& b) {
    if (a.set != b.set) return a.set < b.set;
    return a.count < b.count;
  }
};

/// A condensed configuration.  Always kept normalized: groups with equal sets
/// merged, zero-count groups dropped, groups sorted by set.  Two condensed
/// configurations compare equal iff their normal forms coincide (note this is
/// syntactic equality, not language equality).
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Group> groups);

  /// Convenience: configuration that is a plain word (each label a singleton
  /// group).
  static Configuration fromWord(const Word& w);

  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] Count degree() const { return degree_; }
  [[nodiscard]] bool empty() const { return groups_.empty(); }

  /// Union of all group sets: the labels that may appear in some word.
  [[nodiscard]] LabelSet support() const;

  /// True iff the word `w` (count vector) is one of the words denoted by this
  /// configuration.  Decided by bipartite max-flow; exact for any exponents.
  [[nodiscard]] bool matchesWord(const Word& w) const;

  /// True iff this configuration and `other` denote at least one common word.
  /// Decided by a tripartite flow; exact for any exponents.  Degrees must
  /// match (otherwise trivially false).
  [[nodiscard]] bool intersects(const Configuration& other) const;

  /// True iff *every* word denoted by `other` is denoted by this one; exact
  /// for any exponents.  Hall: degrees match and S_this(U) <= S_other(U) for
  /// every union U of this one's group sets, S_C(U) = C's slots with set ⊆ U.
  /// Proof: a word is denoted iff it puts >= S_this(U) labels into each such
  /// U (Hall), and the fewest any word of `other` puts into U is S_other(U).
  [[nodiscard]] bool containsAllWordsOf(const Configuration& other) const;

  /// Definition 7 (condensed form): true iff `other` is a relaxation of this
  /// configuration, i.e. there is a slot-preserving assignment of this
  /// configuration's groups to `other`'s groups such that every slot's set
  /// grows (set inclusion).  Decided by max-flow.
  [[nodiscard]] bool relaxesTo(const Configuration& other) const;

  /// Applies `fn : LabelSet -> LabelSet` to every group's set and
  /// renormalizes.  Used by the replacement method of R / Rbar and by
  /// renaming.
  template <typename Fn>
  [[nodiscard]] Configuration mapSets(Fn&& fn) const {
    std::vector<Group> out;
    out.reserve(groups_.size());
    for (const Group& g : groups_) out.push_back({fn(g.set), g.count});
    return Configuration(std::move(out));
  }

  /// Enumerates every word denoted by this configuration, invoking
  /// `fn(const Word&)` once per distinct word.  Throws Error if the number of
  /// words would exceed `limit`.
  ///
  /// The template overload binds the callback statically -- no per-word
  /// type erasure on the enumeration hot paths (strength computation, R-bar
  /// word checks).  The std::function overload remains out-of-line for
  /// ABI-stable callers holding an erased callback.
  template <typename Fn>
  void forEachWord(int alphabetSize, Fn&& fn,
                   std::size_t limit = 5'000'000) const;
  void forEachWord(int alphabetSize, const std::function<void(const Word&)>& fn,
                   std::size_t limit) const;

  /// Number of distinct words denoted (capped at `limit`).
  [[nodiscard]] std::size_t countWords(int alphabetSize,
                                       std::size_t limit) const;

  /// Cheap upper bound on the number of distinct words (product of per-group
  /// multiset counts), saturated at `cap`.  Pure arithmetic; used to skip
  /// hopeless enumerations.
  [[nodiscard]] std::size_t countWordsUpperBound(std::size_t cap) const;

  [[nodiscard]] std::string render(const Alphabet& alphabet) const;

  friend bool operator==(const Configuration&, const Configuration&) = default;
  friend bool operator<(const Configuration& a, const Configuration& b) {
    return a.groups_ < b.groups_;
  }

 private:
  std::vector<Group> groups_;
  Count degree_ = 0;
};

namespace detail {

/// Enumerates multisets of size `count` from `labels`, accumulating the
/// per-label counts into `acc` and invoking `fn()` per completed multiset.
template <typename Fn>
void forEachMultiset(const std::vector<Label>& labels, Count count, Word& acc,
                     std::size_t idx, Fn&& fn) {
  if (idx + 1 == labels.size()) {
    acc[labels[idx]] += count;
    fn();
    acc[labels[idx]] -= count;
    return;
  }
  for (Count take = 0; take <= count; ++take) {
    acc[labels[idx]] += take;
    forEachMultiset(labels, count - take, acc, idx + 1, fn);
    acc[labels[idx]] -= take;
  }
}

}  // namespace detail

template <typename Fn>
void Configuration::forEachWord(int alphabetSize, Fn&& fn,
                                std::size_t limit) const {
  if (!support().subsetOf(LabelSet::full(alphabetSize))) {
    throw Error("forEachWord: configuration mentions labels outside alphabet");
  }
  std::set<Word> seen;
  Word acc(static_cast<std::size_t>(alphabetSize), 0);
  const auto rec = [&](const auto& self, std::size_t groupIdx) -> void {
    if (groupIdx == groups_.size()) {
      if (seen.insert(acc).second) {
        if (seen.size() > limit) {
          throw Error("forEachWord: word count exceeds limit");
        }
        fn(acc);
      }
      return;
    }
    const Group& g = groups_[groupIdx];
    const auto labels = g.set.toVector();
    if (g.count > 1'000'000) {
      throw Error("forEachWord: exponent too large to enumerate");
    }
    detail::forEachMultiset(labels, g.count, acc, 0,
                            [&] { self(self, groupIdx + 1); });
  };
  rec(rec, 0);
}

}  // namespace relb::re
