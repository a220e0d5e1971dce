#include "re/diagram.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "re/packed_words.hpp"

namespace relb::re {

StrengthRelation::StrengthRelation(int numLabels)
    : numLabels_(numLabels),
      geq_(static_cast<std::size_t>(numLabels) *
               static_cast<std::size_t>(numLabels),
           false) {
  if (numLabels < 1 || numLabels > kMaxLabels) {
    throw Error("StrengthRelation: bad label count");
  }
  for (int l = 0; l < numLabels; ++l) {
    set(static_cast<Label>(l), static_cast<Label>(l), true);
  }
}

void StrengthRelation::set(Label strong, Label weak, bool value) {
  assert(strong < numLabels_ && weak < numLabels_);
  geq_[static_cast<std::size_t>(strong) *
           static_cast<std::size_t>(numLabels_) +
       weak] = value;
}

bool StrengthRelation::atLeastAsStrong(Label strong, Label weak) const {
  assert(strong < numLabels_ && weak < numLabels_);
  return geq_[static_cast<std::size_t>(strong) *
                  static_cast<std::size_t>(numLabels_) +
              weak];
}

bool StrengthRelation::strictlyStronger(Label strong, Label weak) const {
  return atLeastAsStrong(strong, weak) && !atLeastAsStrong(weak, strong);
}

LabelSet StrengthRelation::upwardClosureOf(Label l) const {
  LabelSet out;
  for (int s = 0; s < numLabels_; ++s) {
    if (atLeastAsStrong(static_cast<Label>(s), l)) {
      out.insert(static_cast<Label>(s));
    }
  }
  return out;
}

LabelSet StrengthRelation::rightClosure(LabelSet s) const {
  LabelSet out;
  forEachLabel(s, [&](Label l) { out = out | upwardClosureOf(l); });
  return out;
}

bool StrengthRelation::isRightClosed(LabelSet s) const {
  return rightClosure(s) == s;
}

std::vector<LabelSet> StrengthRelation::allRightClosedSets(
    LabelSet universe) const {
  if (universe.size() > 20) {
    throw Error("allRightClosedSets: universe too large");
  }
  const auto labels = universe.toVector();
  // Per-member upward closures, computed once; each candidate's closure is
  // then an OR over its members instead of a fresh relation scan.
  std::array<std::uint32_t, 20> up{};
  std::array<std::uint32_t, 20> bit{};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    up[i] = upwardClosureOf(labels[i]).bits();
    bit[i] = std::uint32_t{1} << labels[i];
  }
  std::vector<LabelSet> out;
  const std::uint32_t count = std::uint32_t{1} << labels.size();
  const std::uint32_t inside = universe.bits();
  for (std::uint32_t mask = 1; mask < count; ++mask) {
    std::uint32_t s = 0;
    std::uint32_t closure = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      const int i = __builtin_ctz(m);
      s |= bit[static_cast<std::size_t>(i)];
      closure |= up[static_cast<std::size_t>(i)];
    }
    // Right-closed *within the universe*: the closure may not leave it.
    if ((closure & inside) == s && (closure & ~inside) == 0) {
      out.push_back(LabelSet(s));
    }
  }
  return out;
}

void StrengthRelation::checkPreorder() const {
  for (int a = 0; a < numLabels_; ++a) {
    if (!atLeastAsStrong(static_cast<Label>(a), static_cast<Label>(a))) {
      throw Error("StrengthRelation: not reflexive");
    }
    for (int b = 0; b < numLabels_; ++b) {
      for (int c = 0; c < numLabels_; ++c) {
        if (atLeastAsStrong(static_cast<Label>(a), static_cast<Label>(b)) &&
            atLeastAsStrong(static_cast<Label>(b), static_cast<Label>(c)) &&
            !atLeastAsStrong(static_cast<Label>(a), static_cast<Label>(c))) {
          throw Error("StrengthRelation: not transitive");
        }
      }
    }
  }
}

std::vector<std::pair<Label, Label>> StrengthRelation::diagramEdges() const {
  std::vector<std::pair<Label, Label>> edges;
  for (int weak = 0; weak < numLabels_; ++weak) {
    for (int strong = 0; strong < numLabels_; ++strong) {
      if (!strictlyStronger(static_cast<Label>(strong),
                            static_cast<Label>(weak))) {
        continue;
      }
      // Transitive reduction: keep the edge only if no label sits strictly
      // between.
      bool between = false;
      for (int mid = 0; mid < numLabels_ && !between; ++mid) {
        if (strictlyStronger(static_cast<Label>(mid),
                             static_cast<Label>(weak)) &&
            strictlyStronger(static_cast<Label>(strong),
                             static_cast<Label>(mid))) {
          between = true;
        }
      }
      if (!between) {
        edges.emplace_back(static_cast<Label>(weak),
                           static_cast<Label>(strong));
      }
    }
  }
  return edges;
}

std::string StrengthRelation::renderDiagram(const Alphabet& alphabet) const {
  std::string out;
  for (const auto& [weak, strong] : diagramEdges()) {
    out += alphabet.name(weak) + " -> " + alphabet.name(strong) + "\n";
  }
  if (out.empty()) out = "(no relations)\n";
  return out;
}

std::string StrengthRelation::toDot(const Alphabet& alphabet,
                                    const std::string& graphName) const {
  std::string out = "digraph " + graphName + " {\n";
  for (int l = 0; l < numLabels_; ++l) {
    out += "  \"" + alphabet.name(static_cast<Label>(l)) + "\";\n";
  }
  for (const auto& [weak, strong] : diagramEdges()) {
    out += "  \"" + alphabet.name(weak) + "\" -> \"" + alphabet.name(strong) +
           "\";\n";
  }
  out += "}\n";
  return out;
}

namespace {

// Strength over the packed language: the replaced word is two nibble
// updates and the membership test is a binary search in a sorted flat
// array -- no per-word vectors.  (replaced[strong] <= 15 always: the word's
// nibbles sum to the degree and weak contributes at least 1.)
template <typename W>
StrengthRelation packedStrength(const Constraint& constraint,
                                int alphabetSize, std::size_t limit) {
  const auto words =
      kernels::collectPackedWords<W>(constraint, alphabetSize, limit);
  StrengthRelation rel(alphabetSize);
  for (int strong = 0; strong < alphabetSize; ++strong) {
    const W strongOne = W{1} << (4 * strong);
    for (int weak = 0; weak < alphabetSize; ++weak) {
      if (strong == weak) continue;
      const W weakOne = W{1} << (4 * weak);
      bool holds = true;
      for (const W w : words) {
        if (((w >> (4 * weak)) & 0xF) == 0) continue;
        if (!std::binary_search(words.begin(), words.end(),
                                w - weakOne + strongOne)) {
          holds = false;
          break;
        }
      }
      rel.set(static_cast<Label>(strong), static_cast<Label>(weak), holds);
    }
  }
  return rel;
}

}  // namespace

StrengthRelation computeStrength(const Constraint& constraint,
                                 int alphabetSize, std::size_t limit) {
  // Degree <= 15 keeps every per-label count in one nibble: up to 16 labels
  // pack into a uint64, up to 32 into an unsigned __int128.
  if (constraint.degree() <= 15 && alphabetSize <= kMaxLabels) {
    if (alphabetSize <= 16) {
      return packedStrength<kernels::PackedWord>(constraint, alphabetSize,
                                                 limit);
    }
    return packedStrength<kernels::WidePackedWord>(constraint, alphabetSize,
                                                   limit);
  }
  // Larger degrees: the same test over explicit words, which
  // enumerateWords returns sorted and distinct.
  const auto words = constraint.enumerateWords(alphabetSize, limit);
  StrengthRelation rel(alphabetSize);
  for (int strong = 0; strong < alphabetSize; ++strong) {
    for (int weak = 0; weak < alphabetSize; ++weak) {
      if (strong == weak) continue;
      bool holds = true;
      for (const Word& w : words) {
        if (w[static_cast<std::size_t>(weak)] == 0) continue;
        Word replaced = w;
        --replaced[static_cast<std::size_t>(weak)];
        ++replaced[static_cast<std::size_t>(strong)];
        if (!std::binary_search(words.begin(), words.end(), replaced)) {
          holds = false;
          break;
        }
      }
      rel.set(static_cast<Label>(strong), static_cast<Label>(weak), holds);
    }
  }
  return rel;
}

namespace {

// Searches for a word of L(candidate) that is not in L(constraint), trying
// extremal words only: one label per group, or a (1, count-1) split of one
// group.  Returns true if a definite counterexample is found.
bool findCounterexampleWord(const Configuration& candidate,
                            const Constraint& constraint, int alphabetSize) {
  const auto& groups = candidate.groups();
  // Choice of a single label per group, recursively.
  Word acc(static_cast<std::size_t>(alphabetSize), 0);
  bool found = false;
  std::function<void(std::size_t)> rec = [&](std::size_t idx) {
    if (found) return;
    if (idx == groups.size()) {
      if (!constraint.containsWord(acc)) found = true;
      return;
    }
    const auto labels = groups[idx].set.toVector();
    for (Label l : labels) {
      acc[l] += groups[idx].count;
      rec(idx + 1);
      acc[l] -= groups[idx].count;
      if (found) return;
    }
    // (1, count-1) splits within the group.
    if (groups[idx].count >= 2) {
      for (Label l1 : labels) {
        for (Label l2 : labels) {
          if (l1 == l2) continue;
          acc[l1] += 1;
          acc[l2] += groups[idx].count - 1;
          rec(idx + 1);
          acc[l1] -= 1;
          acc[l2] -= groups[idx].count - 1;
          if (found) return;
        }
      }
    }
  };
  rec(0);
  return found;
}

}  // namespace

std::optional<bool> atLeastAsStrongScalable(const Constraint& constraint,
                                            int alphabetSize, Label strong,
                                            Label weak,
                                            std::size_t enumerationLimit) {
  if (strong == weak) return true;
  bool unknown = false;
  for (const auto& config : constraint.configurations()) {
    for (std::size_t g = 0; g < config.groups().size(); ++g) {
      if (!config.groups()[g].set.contains(weak)) continue;
      std::vector<Group> groups = config.groups();
      groups[g].count -= 1;
      groups.push_back({LabelSet::single(strong), 1});
      const Configuration replaced{std::move(groups)};
      try {
        if (!constraint.containsAllWordsOf(replaced, alphabetSize,
                                           enumerationLimit)) {
          return false;
        }
      } catch (const Error&) {
        // Language too large to enumerate: try to falsify with extremal
        // words, otherwise report undecided.
        if (findCounterexampleWord(replaced, constraint, alphabetSize)) {
          return false;
        }
        unknown = true;
      }
    }
  }
  if (unknown) return std::nullopt;
  return true;
}

StrengthRelation computeStrengthScalable(const Constraint& constraint,
                                         int alphabetSize,
                                         std::size_t enumerationLimit) {
  StrengthRelation rel(alphabetSize);
  for (int strong = 0; strong < alphabetSize; ++strong) {
    for (int weak = 0; weak < alphabetSize; ++weak) {
      if (strong == weak) continue;
      const auto result = atLeastAsStrongScalable(
          constraint, alphabetSize, static_cast<Label>(strong),
          static_cast<Label>(weak), enumerationLimit);
      if (!result.has_value()) {
        throw Error("computeStrengthScalable: undecided strength pair");
      }
      rel.set(static_cast<Label>(strong), static_cast<Label>(weak), *result);
    }
  }
  return rel;
}

}  // namespace relb::re
