#include "prop/reference_step.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "re/edge_compat.hpp"

namespace relb::refimpl {

using re::Alphabet;
using re::Configuration;
using re::Constraint;
using re::Count;
using re::Error;
using re::Group;
using re::Label;
using re::LabelSet;
using re::Problem;
using re::StepResult;
using re::Word;

std::vector<LabelSet> edgeCompatibility(const Constraint& edge,
                                        int alphabetSize) {
  if (edge.degree() != 2) throw Error("edgeCompatibility: degree != 2");
  std::vector<LabelSet> compat(static_cast<std::size_t>(alphabetSize));
  for (int a = 0; a < alphabetSize; ++a) {
    for (int b = a; b < alphabetSize; ++b) {
      Word w(static_cast<std::size_t>(alphabetSize), 0);
      ++w[static_cast<std::size_t>(a)];
      ++w[static_cast<std::size_t>(b)];
      if (edge.containsWord(w)) {
        compat[static_cast<std::size_t>(a)].insert(static_cast<Label>(b));
        compat[static_cast<std::size_t>(b)].insert(static_cast<Label>(a));
      }
    }
  }
  return compat;
}

re::StrengthRelation computeStrength(const Constraint& constraint,
                                     int alphabetSize, std::size_t limit) {
  const auto words = constraint.enumerateWords(alphabetSize, limit);
  const std::set<Word> wordSet(words.begin(), words.end());
  re::StrengthRelation rel(alphabetSize);
  for (int strong = 0; strong < alphabetSize; ++strong) {
    for (int weak = 0; weak < alphabetSize; ++weak) {
      if (strong == weak) continue;
      bool holds = true;
      for (const Word& w : words) {
        if (w[static_cast<std::size_t>(weak)] == 0) continue;
        Word replaced = w;
        --replaced[static_cast<std::size_t>(weak)];
        ++replaced[static_cast<std::size_t>(strong)];
        if (!wordSet.contains(replaced)) {
          holds = false;
          break;
        }
      }
      rel.set(static_cast<Label>(strong), static_cast<Label>(weak), holds);
    }
  }
  return rel;
}

std::vector<LabelSet> allRightClosedSets(const re::StrengthRelation& rel,
                                         LabelSet universe) {
  if (universe.size() > 20) {
    throw Error("allRightClosedSets: universe too large");
  }
  const auto labels = universe.toVector();
  std::vector<LabelSet> out;
  const std::uint32_t count = std::uint32_t{1} << labels.size();
  for (std::uint32_t mask = 1; mask < count; ++mask) {
    LabelSet s;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if ((mask >> i) & 1u) s.insert(labels[i]);
    }
    const LabelSet closure = rel.rightClosure(s);
    if ((closure & universe) == s && closure.subsetOf(universe)) {
      out.push_back(s);
    }
  }
  return out;
}

LabelSet selfCompatibleLabels(const Problem& p) {
  LabelSet out;
  for (int l = 0; l < p.alphabet.size(); ++l) {
    Word w(static_cast<std::size_t>(p.alphabet.size()), 0);
    w[static_cast<std::size_t>(l)] += 2;
    if (p.edge.containsWord(w)) out.insert(static_cast<Label>(l));
  }
  return out;
}

bool zeroRoundSolvableWithEdgeInputs(const Problem& p) {
  const auto pairs = re::maximalEdgePairs(p.edge, p.alphabet.size());
  const auto works = [&](LabelSet a, LabelSet b) {
    for (Count m = 0; m <= p.delta(); ++m) {
      const Configuration pattern({{a, m}, {b, p.delta() - m}});
      if (!p.node.intersectsConfiguration(pattern)) return false;
    }
    return true;
  };
  for (const auto& [a, b] : pairs) {
    if (works(a, b) || (a != b && works(b, a))) return true;
  }
  return false;
}

bool slotsRelaxTo(const std::vector<LabelSet>& a,
                  const std::vector<LabelSet>& b) {
  const int n = static_cast<int>(a.size());
  LabelSet unionA, unionB;
  for (const LabelSet s : a) unionA = unionA | s;
  for (const LabelSet s : b) unionB = unionB | s;
  if (!unionA.subsetOf(unionB)) return false;

  std::array<int, 16> matchOfB{};
  matchOfB.fill(-1);
  std::array<bool, 16> visited{};
  std::function<bool(int)> augment = [&](int i) -> bool {
    for (int j = 0; j < n; ++j) {
      if (visited[static_cast<std::size_t>(j)] ||
          !a[static_cast<std::size_t>(i)].subsetOf(
              b[static_cast<std::size_t>(j)])) {
        continue;
      }
      visited[static_cast<std::size_t>(j)] = true;
      if (matchOfB[static_cast<std::size_t>(j)] < 0 ||
          augment(matchOfB[static_cast<std::size_t>(j)])) {
        matchOfB[static_cast<std::size_t>(j)] = i;
        return true;
      }
    }
    return false;
  };
  for (int i = 0; i < n; ++i) {
    visited.fill(false);
    if (!augment(i)) return false;
  }
  return true;
}

// Serial maximal-pair computation: Galois closure over the full 2^n subset
// sweep, then a plain quadratic swapped-orientation domination filter (the
// production code runs none: on a symmetric matrix it removes nothing).
std::vector<std::pair<LabelSet, LabelSet>> maximalEdgePairs(
    const std::vector<LabelSet>& compat, int alphabetSize) {
  if (alphabetSize > 20) {
    throw Error("maximalEdgePairs: alphabet too large to enumerate subsets");
  }
  using Pair = std::pair<LabelSet, LabelSet>;
  const auto partner = [&](LabelSet a) {
    LabelSet out = LabelSet::full(alphabetSize);
    forEachLabel(a, [&](Label l) { out = out & compat[l]; });
    return out;
  };
  const std::uint32_t count = std::uint32_t{1} << alphabetSize;
  std::vector<Pair> pairs;
  for (std::uint32_t m = 1; m < count; ++m) {
    const LabelSet a(m);
    const LabelSet b = partner(a);
    if (b.empty()) continue;
    const LabelSet closedA = partner(b);
    const auto p = std::minmax(closedA, b);
    pairs.emplace_back(p.first, p.second);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<char> dominated(pairs.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = 0; j < pairs.size() && !dominated[i]; ++j) {
      if (j == i) continue;
      const Pair& p = pairs[i];
      const Pair& q = pairs[j];
      const bool straight =
          p.first.subsetOf(q.first) && p.second.subsetOf(q.second);
      const bool swapped =
          p.first.subsetOf(q.second) && p.second.subsetOf(q.first);
      if (straight || swapped) dominated[i] = 1;
    }
  }
  std::vector<Pair> maximal;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!dominated[i]) maximal.push_back(pairs[i]);
  }
  return maximal;
}

namespace {

Alphabet freshAlphabet(const std::vector<LabelSet>& sets,
                       const Alphabet& oldAlphabet) {
  Alphabet fresh;
  for (LabelSet s : sets) {
    const auto labels = s.toVector();
    if (labels.size() == 1) {
      fresh.add(oldAlphabet.name(labels[0]));
      continue;
    }
    std::string name = "(";
    bool multiChar = false;
    for (Label l : labels) multiChar |= oldAlphabet.name(l).size() > 1;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0 && multiChar) name += ' ';
      name += oldAlphabet.name(labels[i]);
    }
    name += ')';
    fresh.add(std::move(name));
  }
  return fresh;
}

Constraint replaceConstraint(const Constraint& constraint,
                             const std::vector<LabelSet>& meaning) {
  Constraint out(constraint.degree(), {});
  for (const auto& c : constraint.configurations()) {
    bool realizable = true;
    auto mapped = c.mapSets([&](LabelSet oldSet) {
      LabelSet fresh;
      for (std::size_t n = 0; n < meaning.size(); ++n) {
        if (meaning[n].intersects(oldSet)) {
          fresh.insert(static_cast<Label>(n));
        }
      }
      if (fresh.empty()) {
        realizable = false;
        fresh.insert(0);  // placeholder; configuration is discarded
      }
      return fresh;
    });
    if (realizable) out.add(std::move(mapped));
  }
  return out;
}

using PackedWord = std::uint64_t;

PackedWord packWord(const Word& w) {
  PackedWord packed = 0;
  for (std::size_t l = 0; l < w.size(); ++l) {
    packed |= static_cast<PackedWord>(w[l]) << (4 * l);
  }
  return packed;
}

bool dominatedBySome(PackedWord p, const std::vector<PackedWord>& words,
                     int alphabetSize) {
  for (const PackedWord w : words) {
    bool ok = true;
    for (int l = 0; l < alphabetSize; ++l) {
      if (((p >> (4 * l)) & 0xF) > ((w >> (4 * l)) & 0xF)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

Configuration slotsToConfiguration(const std::vector<LabelSet>& slots) {
  std::map<LabelSet, Count> counts;
  for (LabelSet s : slots) ++counts[s];
  std::vector<Group> groups;
  groups.reserve(counts.size());
  for (const auto& [set, count] : counts) groups.push_back({set, count});
  return Configuration(std::move(groups));
}

struct RbarEnumerator {
  const std::vector<LabelSet>& rcSets;
  const std::vector<PackedWord>& nodeWords;  // sorted
  const int alphabetSize;
  const Count delta;

  std::unordered_map<PackedWord, bool> completable;
  std::vector<LabelSet> slots;
  std::vector<std::vector<LabelSet>> valid;

  bool canComplete(PackedWord w) {
    const auto it = completable.find(w);
    if (it != completable.end()) return it->second;
    const bool result = dominatedBySome(w, nodeWords, alphabetSize);
    completable.emplace(w, result);
    return result;
  }

  void descend(std::size_t i, const std::vector<PackedWord>& level) {
    std::vector<PackedWord> next;
    next.reserve(level.size() * static_cast<std::size_t>(rcSets[i].size()));
    for (const PackedWord w : level) {
      forEachLabel(rcSets[i], [&](Label l) {
        next.push_back(w + (PackedWord{1} << (4 * l)));
      });
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    const bool viable = std::all_of(
        next.begin(), next.end(), [&](PackedWord w) { return canComplete(w); });
    if (!viable) return;
    slots.push_back(rcSets[i]);
    rec(i, next);
    slots.pop_back();
  }

  void rec(std::size_t minIdx, const std::vector<PackedWord>& level) {
    if (static_cast<Count>(slots.size()) == delta) {
      const bool all =
          std::all_of(level.begin(), level.end(), [&](PackedWord w) {
            return std::binary_search(nodeWords.begin(), nodeWords.end(), w);
          });
      if (all) valid.push_back(slots);
      return;
    }
    for (std::size_t i = minIdx; i < rcSets.size(); ++i) descend(i, level);
  }
};

}  // namespace

StepResult applyR(const Problem& p) {
  p.validate();
  const int n = p.alphabet.size();
  const auto compat = refimpl::edgeCompatibility(p.edge, n);
  const auto pairs = maximalEdgePairs(compat, n);
  if (pairs.empty()) {
    throw Error("applyR: empty edge constraint after maximization");
  }

  std::set<LabelSet> setsSeen;
  for (const auto& [a, b] : pairs) {
    setsSeen.insert(a);
    setsSeen.insert(b);
  }
  StepResult result;
  result.meaning.assign(setsSeen.begin(), setsSeen.end());
  result.problem.alphabet = freshAlphabet(result.meaning, p.alphabet);

  const auto freshLabelOf = [&](LabelSet s) {
    const auto it =
        std::lower_bound(result.meaning.begin(), result.meaning.end(), s);
    assert(it != result.meaning.end() && *it == s);
    return static_cast<Label>(it - result.meaning.begin());
  };

  Constraint edge(2, {});
  for (const auto& [a, b] : pairs) {
    const Label la = freshLabelOf(a);
    const Label lb = freshLabelOf(b);
    if (la == lb) {
      edge.add(Configuration({{LabelSet{la}, 2}}));
    } else {
      edge.add(Configuration({{LabelSet{la}, 1}, {LabelSet{lb}, 1}}));
    }
  }
  result.problem.edge = std::move(edge);
  result.problem.node = replaceConstraint(p.node, result.meaning);
  result.problem.validate();
  return result;
}

StepResult applyRbar(const Problem& p, const re::StepOptions& options) {
  p.validate();
  const int n = p.alphabet.size();
  const Count delta = p.delta();
  if (delta > options.maxRbarDelta) {
    throw Error("applyRbar: node degree too large for exact maximization");
  }

  const auto rcSets = refimpl::allRightClosedSets(
      refimpl::computeStrength(p.node, n, options.enumerationLimit),
      p.alphabet.all());

  if (n > 16 || delta > 15) {
    throw Error("applyRbar: packed-word enumeration needs <= 16 labels and "
                "delta <= 15");
  }
  const auto nodeWordList = p.node.enumerateWords(n, options.enumerationLimit);
  std::vector<PackedWord> nodeWords;
  nodeWords.reserve(nodeWordList.size());
  for (const Word& w : nodeWordList) nodeWords.push_back(packWord(w));
  std::sort(nodeWords.begin(), nodeWords.end());

  RbarEnumerator enumerator{rcSets, nodeWords, n, delta, {}, {}, {}};
  enumerator.rec(0, {0});
  std::vector<std::vector<LabelSet>> valid = std::move(enumerator.valid);
  if (valid.empty()) {
    throw Error("applyRbar: node constraint empty after maximization");
  }

  // Plain quadratic antichain filter (strict domination under Definition 7);
  // the production maximal-first scan only prunes comparisons.
  std::vector<char> dominated(valid.size(), 0);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (std::size_t j = 0; j < valid.size() && !dominated[i]; ++j) {
      if (j == i) continue;
      if (slotsRelaxTo(valid[i], valid[j]) && !slotsRelaxTo(valid[j], valid[i])) {
        dominated[i] = 1;
      }
    }
  }
  std::vector<Configuration> maximal;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (!dominated[i]) maximal.push_back(slotsToConfiguration(valid[i]));
  }
  std::sort(maximal.begin(), maximal.end());
  maximal.erase(std::unique(maximal.begin(), maximal.end()), maximal.end());

  std::set<LabelSet> setsSeen;
  for (const auto& c : maximal) {
    for (const auto& g : c.groups()) setsSeen.insert(g.set);
  }
  StepResult result;
  result.meaning.assign(setsSeen.begin(), setsSeen.end());
  result.problem.alphabet = freshAlphabet(result.meaning, p.alphabet);

  const auto freshLabelOf = [&](LabelSet s) {
    const auto it =
        std::lower_bound(result.meaning.begin(), result.meaning.end(), s);
    assert(it != result.meaning.end() && *it == s);
    return static_cast<Label>(it - result.meaning.begin());
  };

  Constraint node(delta, {});
  for (const auto& c : maximal) {
    std::vector<Group> groups;
    for (const auto& g : c.groups()) {
      groups.push_back({LabelSet::single(freshLabelOf(g.set)), g.count});
    }
    node.add(Configuration(std::move(groups)));
  }
  result.problem.node = std::move(node);
  result.problem.edge = replaceConstraint(p.edge, result.meaning);
  result.problem.validate();
  return result;
}

}  // namespace relb::refimpl
