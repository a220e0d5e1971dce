#include "re/zero_round.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "re/edge_compat.hpp"

namespace relb::re {

LabelSet selfCompatibleLabels(const Problem& p) {
  // The word {l, l} is allowed iff some configuration admits it: l in S for
  // a one-group [S^2] shape, l in S and T for a two-group [S T] shape.  A
  // shape scan over the configurations replaces the per-label containsWord
  // flow; a non-degree-2 edge constraint admits no degree-2 word at all.
  if (p.edge.degree() != 2) return {};
  LabelSet out;
  for (const auto& c : p.edge.configurations()) {
    const auto& groups = c.groups();
    out = out | (groups.size() == 1 ? groups[0].set
                                    : groups[0].set & groups[1].set);
  }
  return out & p.alphabet.all();
}

bool selfCompatible(const Problem& p, Label l) {
  return selfCompatibleLabels(p).contains(l);
}

std::optional<Word> zeroRoundSymmetricWitness(const Problem& p) {
  const LabelSet good = selfCompatibleLabels(p);
  for (const auto& config : p.node.configurations()) {
    Word witness(static_cast<std::size_t>(p.alphabet.size()), 0);
    bool feasible = true;
    for (const Group& g : config.groups()) {
      const LabelSet allowed = g.set & good;
      if (allowed.empty()) {
        feasible = false;
        break;
      }
      witness[allowed.min()] += g.count;
    }
    if (feasible) return witness;
  }
  return std::nullopt;
}

bool zeroRoundSolvableSymmetricPorts(const Problem& p) {
  return zeroRoundSymmetricWitness(p).has_value();
}

std::optional<Word> zeroRoundAdversarialWitness(const Problem& p) {
  const auto compat = edgeCompatibility(p.edge, p.alphabet.size());
  // A support set S works iff S x S (including diagonal) is edge-compatible.
  const auto cliqueOk = [&](LabelSet s) {
    bool ok = true;
    forEachLabel(s, [&](Label l) {
      if (!s.subsetOf(compat[l])) ok = false;
    });
    return ok;
  };
  for (const auto& config : p.node.configurations()) {
    // Greedy is not enough here (the choice within one group affects the
    // clique condition globally), so search over per-group label choices;
    // groups are few, and only the support matters, so dedupe by support
    // (keeping one representative word per support).
    const auto& groups = config.groups();
    std::vector<std::pair<LabelSet, Word>> choices{
        {LabelSet{}, Word(static_cast<std::size_t>(p.alphabet.size()), 0)}};
    for (const Group& g : groups) {
      std::vector<std::pair<LabelSet, Word>> next;
      for (const auto& [s, w] : choices) {
        forEachLabel(g.set, [&](Label l) {
          LabelSet extended = s;
          extended.insert(l);
          Word word = w;
          word[l] += g.count;
          next.emplace_back(extended, std::move(word));
        });
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 next.end());
      choices = std::move(next);
    }
    for (const auto& [s, w] : choices) {
      if (cliqueOk(s)) return w;
    }
  }
  return std::nullopt;
}

bool zeroRoundSolvableAdversarialPorts(const Problem& p) {
  return zeroRoundAdversarialWitness(p).has_value();
}

// For an oriented maximal pair (A, B) the algorithm needs, for every side-bit
// pattern m in [0, Delta], a node configuration C = {S_1^c_1, ..., S_k^c_k}
// admitting a word with m labels from A and Delta - m from B.
//
// Closed form.  The intersection flow (source -> groups of C -> labels ->
// pattern groups A^m, B^(Delta-m) -> sink) puts no capacity on its label
// layer, so it collapses to a transport problem with two sinks: group i
// ships c_i units, each to the A-sink if S_i meets A and to the B-sink if
// S_i meets B, and it may split them freely (each slot picks its label on
// its own).  The A-sink must take exactly m units, the B-sink Delta - m.
// That is feasible iff every S_i meets A u B and lo_C <= m <= hi_C, where
//   lo_C = sum of c_i over the S_i disjoint from B (they must go to A),
//   hi_C = sum of c_i over the S_i meeting A (all that can go to A).
// So (A, B) works iff the intervals [lo_C, hi_C] of the admissible C cover
// [0, Delta]: a sort by lo and one sweep, O(k log k) in the number of node
// configurations, with no dependence on Delta (Count is 64-bit, and chain
// problems reach Delta = 2^40, so no loop or bitmask over m).
//
// Symmetry.  {A^m B^(Delta-m) : 0 <= m <= Delta} and {B^m A^(Delta-m)} are
// the same set of patterns (substitute m -> Delta - m), so (B, A) works iff
// (A, B) does; each unordered pair is tested once.
bool zeroRoundSolvableWithEdgeInputs(const Problem& p) {
  const Count delta = p.delta();
  const auto pairs = maximalEdgePairs(p.edge, p.alphabet.size());
  std::vector<std::pair<Count, Count>> intervals;
  intervals.reserve(p.node.size());
  const auto works = [&](LabelSet a, LabelSet b) {
    intervals.clear();
    const LabelSet either = a | b;
    for (const auto& config : p.node.configurations()) {
      if (config.degree() != delta) continue;
      Count lo = 0;
      Count hi = 0;
      bool placeable = true;
      for (const Group& g : config.groups()) {
        if (!g.set.intersects(either)) {
          placeable = false;
          break;
        }
        if (!g.set.intersects(b)) lo += g.count;
        if (g.set.intersects(a)) hi += g.count;
      }
      if (placeable) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    Count uncovered = 0;  // the least m no interval seen so far covers
    for (const auto& [lo, hi] : intervals) {
      if (lo > uncovered) break;
      uncovered = std::max(uncovered, hi + 1);
    }
    return uncovered > delta;
  };
  return std::any_of(pairs.begin(), pairs.end(),
                     [&](const auto& pair) {
                       return works(pair.first, pair.second);
                     });
}

double randomizedFailureLowerBound(const Problem& p) {
  if (zeroRoundSolvableSymmetricPorts(p)) return 0.0;
  const double q = static_cast<double>(p.node.size());
  const double delta = static_cast<double>(p.delta());
  const double perPort = 1.0 / (q * delta);
  return perPort * perPort;
}

}  // namespace relb::re
