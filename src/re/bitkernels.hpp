// Bit-parallel kernels for the R / R̄ hot paths.
//
// Everything the speedup step does per candidate boils down to a handful of
// word-level primitives over the 32-bit LabelSet representation and the
// 4-bit-per-label PackedWord encoding (<= 16 labels, per-label counts <= 15,
// see re_step.hpp's enumeration guards):
//
//   * packWord / ExpandedWord — the packed multiset encoding plus its
//     byte-per-label expansion.  Expanding the 16 nibbles into 16 byte lanes
//     (values <= 15 < 128) makes componentwise comparison a three-op SWAR
//     test with no per-label loop and no branches.
//   * packedLeq / dominatedBySome — componentwise p <= w in every lane,
//     tested against a batch of words ("p is still completable"; the
//     oracle for CompletionTable, and R̄'s slot-count prefilter).
//   * slotsRelaxTo — Definition 7 on flat slot arrays: a perfect matching
//     pairing every slot of `a` with a superset slot of `b`, via bitmask
//     adjacency rows and an allocation-free Kuhn augmentation.
//   * CompletionTable — the completable partial words of a node
//     constraint, one sorted layer per depth, with a per-label transition
//     table; the R̄ DFS extends a level by table reads.
//
// These kernels are pure functions of their operands; bit-identity against
// the pre-rewrite set/map-based reference implementations is asserted by
// tests/prop/prop_kernels_test.cpp, and bench/bench_perf_engine.cpp
// (BM_DominationFilter, BM_RightClosure, BM_SubsetSweep) tracks them in the
// committed BENCH_speedup.json trajectory.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "re/label_set.hpp"
#include "re/types.hpp"

namespace relb::re::kernels {

/// A multiset of <= 16 labels with per-label counts <= 15: 4 bits per label,
/// label l in bits [4l, 4l+4).
using PackedWord = std::uint64_t;

/// Byte-per-label expansion of a PackedWord: lanes 0..7 in `lo`, 8..15 in
/// `hi`, every lane value <= 15 so the SWAR comparison below never borrows
/// across lanes.
struct ExpandedWord {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Spreads the 8 nibbles of `x` into the 8 byte lanes of the result
/// (nibble i -> byte i), the classic interleave cascade.
[[nodiscard]] constexpr std::uint64_t spreadNibblesToBytes(std::uint32_t x) {
  std::uint64_t t = x;
  t = (t | (t << 16)) & 0x0000FFFF0000FFFFull;
  t = (t | (t << 8)) & 0x00FF00FF00FF00FFull;
  t = (t | (t << 4)) & 0x0F0F0F0F0F0F0F0Full;
  return t;
}

[[nodiscard]] constexpr ExpandedWord expandWord(PackedWord w) {
  return {spreadNibblesToBytes(static_cast<std::uint32_t>(w)),
          spreadNibblesToBytes(static_cast<std::uint32_t>(w >> 32))};
}

/// True iff p <= w in every byte lane.  Adding 0x80 to each w-lane and
/// subtracting the p-lane (<= 15) keeps every lane strictly positive, so the
/// single 64-bit subtraction cannot borrow across lanes; the lane's high bit
/// then reads "did w_l >= p_l".
[[nodiscard]] constexpr bool packedLeq(ExpandedWord p, ExpandedWord w) {
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  return ((((w.lo | kHigh) - p.lo) & ((w.hi | kHigh) - p.hi)) & kHigh) ==
         kHigh;
}

/// True iff some word of `words` dominates `p` componentwise — i.e. the
/// partial word `p` can still be completed to an allowed word.
[[nodiscard]] inline bool dominatedBySome(ExpandedWord p,
                                          const ExpandedWord* words,
                                          std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (packedLeq(p, words[i])) return true;
  }
  return false;
}

namespace detail {

/// One Kuhn augmentation step over bitmask adjacency rows (adj[i] = the
/// b-slots that are supersets of a-slot i).  `visited` accumulates the
/// b-slots touched in this round.
inline bool augment(int i, const std::uint16_t* adj, int* matchOfB,
                    std::uint32_t& visited) {
  for (std::uint32_t cand = adj[i] & ~visited; cand != 0; cand &= cand - 1) {
    const int j = __builtin_ctz(cand);
    if ((visited >> j) & 1u) continue;  // taken by a deeper recursion
    visited |= std::uint32_t{1} << j;
    if (matchOfB[j] < 0 || augment(matchOfB[j], adj, matchOfB, visited)) {
      matchOfB[j] = i;
      return true;
    }
  }
  return false;
}

}  // namespace detail

/// Definition 7 on flat slot arrays: true iff there is a perfect matching
/// pairing every slot of `a` with a superset slot of `b`.  Both arrays hold
/// `n` LabelSet bitmasks, n <= 16.  Allocation- and std::function-free.
[[nodiscard]] inline bool slotsRelaxTo(const std::uint32_t* a,
                                       const std::uint32_t* b, int n) {
  assert(n >= 0 && n <= 16);
  std::uint32_t unionA = 0, unionB = 0;
  for (int i = 0; i < n; ++i) {
    unionA |= a[i];
    unionB |= b[i];
  }
  if ((unionA & ~unionB) != 0) return false;
  std::uint16_t adj[16];
  for (int i = 0; i < n; ++i) {
    std::uint16_t row = 0;
    for (int j = 0; j < n; ++j) {
      row |= static_cast<std::uint16_t>(
          static_cast<std::uint16_t>((a[i] & ~b[j]) == 0) << j);
    }
    if (row == 0) return false;  // this a-slot has no superset b-slot at all
    adj[i] = row;
  }
  int matchOfB[16];
  for (int j = 0; j < n; ++j) matchOfB[j] = -1;
  for (int i = 0; i < n; ++i) {
    std::uint32_t visited = 0;
    if (!detail::augment(i, adj, matchOfB, visited)) return false;
  }
  return true;
}

/// The completable partial words of a node constraint, one sorted layer per
/// depth, plus a per-depth transition table.  Layer `delta` is the node
/// words themselves; layer d - 1 holds every w - e_l with w in layer d, so
/// a word of total d is in layer d exactly when some node word dominates
/// it.  `next(d)[k * n + l]` is the index of layer(d)[k] + e_l in
/// layer(d + 1), or -1 when that word is not completable.  The R̄ DFS keeps
/// each level as a list of layer indices, so extending a level by a label
/// is one table read per word.
class CompletionTable {
 public:
  /// `nodeWords`: sorted, distinct, every word of total `delta` <= 15, over
  /// `numLabels` <= 16 labels.
  CompletionTable(const std::vector<PackedWord>& nodeWords, int numLabels,
                  int delta)
      : numLabels_(numLabels),
        layers_(static_cast<std::size_t>(delta) + 1),
        next_(static_cast<std::size_t>(delta)) {
    assert(numLabels <= 16 && delta >= 0 && delta <= 15);
    layers_[static_cast<std::size_t>(delta)] = nodeWords;
    const auto n = static_cast<std::size_t>(numLabels);
    for (std::size_t d = static_cast<std::size_t>(delta); d > 0; --d) {
      const std::vector<PackedWord>& upper = layers_[d];
      std::vector<PackedWord>& lower = layers_[d - 1];
      for (const PackedWord w : upper) {
        for (std::size_t l = 0; l < n; ++l) {
          if (((w >> (4 * l)) & 0xF) != 0) lower.push_back(w - unit(l));
        }
      }
      std::sort(lower.begin(), lower.end());
      lower.erase(std::unique(lower.begin(), lower.end()), lower.end());
      // Every non-negative entry is some w - e_l -> w edge generated above.
      std::vector<std::int32_t>& table = next_[d - 1];
      table.assign(lower.size() * n, -1);
      for (std::size_t j = 0; j < upper.size(); ++j) {
        for (std::size_t l = 0; l < n; ++l) {
          if (((upper[j] >> (4 * l)) & 0xF) == 0) continue;
          const auto k = static_cast<std::size_t>(
              std::lower_bound(lower.begin(), lower.end(),
                               upper[j] - unit(l)) -
              lower.begin());
          table[k * n + l] = static_cast<std::int32_t>(j);
        }
      }
    }
  }

  [[nodiscard]] int numLabels() const { return numLabels_; }
  /// The completable words of total `d`, ascending.
  [[nodiscard]] const std::vector<PackedWord>& layer(int d) const {
    return layers_[static_cast<std::size_t>(d)];
  }
  /// Row-major layer(d).size() x numLabels() transition table, d < delta.
  [[nodiscard]] const std::int32_t* next(int d) const {
    return next_[static_cast<std::size_t>(d)].data();
  }

 private:
  static PackedWord unit(std::size_t l) { return PackedWord{1} << (4 * l); }

  int numLabels_;
  std::vector<std::vector<PackedWord>> layers_;
  std::vector<std::vector<std::int32_t>> next_;
};

}  // namespace relb::re::kernels
