#include "re/edge_compat.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace relb::re {

namespace {

struct EdgeCounters {
  obs::Counter& closedSets;
  obs::Counter& pairCandidates;
  obs::Counter& pairMaximal;
};

EdgeCounters& edgeCounters() {
  auto& reg = obs::Registry::global();
  static EdgeCounters c{reg.counter("re.r.closed_sets"),
                        reg.counter("re.r.pairs.candidates"),
                        reg.counter("re.r.pairs.maximal")};
  return c;
}

}  // namespace

std::vector<LabelSet> edgeCompatibility(const Constraint& edge,
                                        int alphabetSize) {
  if (edge.degree() != 2) throw Error("edgeCompatibility: degree != 2");
  // A degree-2 configuration's normal form is either one group [S^2] --
  // allowing exactly the pairs S x S -- or two count-1 groups [S T],
  // allowing S x T.  Scanning the shapes gives the whole matrix directly,
  // with no per-pair containsWord flow.
  const LabelSet universe = LabelSet::full(alphabetSize);
  std::vector<LabelSet> compat(static_cast<std::size_t>(alphabetSize));
  for (const auto& c : edge.configurations()) {
    const auto& groups = c.groups();
    const LabelSet s = groups[0].set & universe;
    const LabelSet t =
        (groups.size() == 1 ? groups[0].set : groups[1].set) & universe;
    forEachLabel(s, [&](Label a) { compat[a] = compat[a] | t; });
    forEachLabel(t, [&](Label b) { compat[b] = compat[b] | s; });
  }
  return compat;
}

std::vector<std::pair<LabelSet, LabelSet>> detail::maximalEdgePairsFromCompat(
    const std::vector<LabelSet>& compat, int alphabetSize) {
  if (alphabetSize > kMaxEdgePairLabels) {
    throw Error("maximalEdgePairs: alphabet too large to enumerate subsets");
  }
  const obs::ScopedSpan span("re.maximalEdgePairs");
  using Pair = std::pair<LabelSet, LabelSet>;
  // partner(A) = intersection of compat[a] over a in A: the unique largest
  // set pairable with A.  Maximal pairs are the Galois-closed pairs
  // (A, partner(A)) with A = partner(partner(A)).  The matrix is copied to a
  // flat word array, masked to the alphabet (the visited set below is
  // indexed by row intersections), so partner() is ctz + AND only.
  const std::uint32_t fullBits = LabelSet::full(alphabetSize).bits();
  std::array<std::uint32_t, kMaxEdgePairLabels> compatBits{};
  for (int l = 0; l < alphabetSize; ++l) {
    compatBits[static_cast<std::size_t>(l)] =
        compat[static_cast<std::size_t>(l)].bits() & fullBits;
  }
  const auto partner = [&](LabelSet a) {
    std::uint32_t out = fullBits;
    for (std::uint32_t m = a.bits(); m != 0; m &= m - 1) {
      out &= compatBits[static_cast<std::size_t>(__builtin_ctz(m))];
    }
    return LabelSet(out);
  };
  // The closed partner sets partner(A), A nonempty, are exactly the nonempty
  // intersections of compatibility rows.  Close the rows under intersection
  // one row at a time: row r adds itself and r & S for every set S found
  // before it.  A 2^n-bit visited set deduplicates, so the cost is
  // O(n * #closed sets) and never above the O(n * 2^n) of a subset sweep.
  std::vector<std::uint32_t> closed;
  std::vector<std::uint64_t> seen((std::size_t{1} << alphabetSize) / 64 + 1);
  const auto insert = [&](std::uint32_t s) {
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    if (s == 0 || (seen[s / 64] & bit) != 0) return;
    seen[s / 64] |= bit;
    closed.push_back(s);
  };
  for (int l = 0; l < alphabetSize; ++l) {
    const std::uint32_t row = compatBits[static_cast<std::size_t>(l)];
    const std::size_t before = closed.size();
    insert(row);
    for (std::size_t i = 0; i < before; ++i) insert(closed[i] & row);
  }
  std::vector<Pair> pairs;
  for (const std::uint32_t bits : closed) {
    const LabelSet b(bits);
    const LabelSet closedA = partner(b);
    assert(partner(closedA) == b);
    const auto p = std::minmax(closedA, b);
    pairs.emplace_back(p.first, p.second);
  }
  // Every closed pair is maximal, in both orientations, so no domination
  // filter follows.  compat is symmetric (edgeCompatibility adds both
  // directions), so (A, B) is closed iff (B, A) is.  Let (A, B) and
  // (A', B') be closed with A <= A' and B <= B' (the swapped orientation is
  // the same test against the closed pair (B', A')).  partner reverses
  // inclusion, so B = partner(A) >= partner(A') = B', hence B = B' and
  // A = partner(B) = partner(B') = A': a closed pair is dominated only by
  // itself, and distinct unordered pairs dominate each other in neither
  // orientation.
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  edgeCounters().closedSets.add(closed.size());
  edgeCounters().pairCandidates.add(pairs.size());
  edgeCounters().pairMaximal.add(pairs.size());
  return pairs;
}

std::vector<std::pair<LabelSet, LabelSet>> maximalEdgePairs(
    const Constraint& edge, int alphabetSize) {
  return detail::maximalEdgePairsFromCompat(
      edgeCompatibility(edge, alphabetSize), alphabetSize);
}

}  // namespace relb::re
