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
//   * packedLeq / dominatedBySome — "partial word still completable":
//     p <= w in every lane, tested against a batch of candidate words.
//   * slotsRelaxTo — Definition 7 on flat slot arrays: a perfect matching
//     pairing every slot of `a` with a superset slot of `b`, via bitmask
//     adjacency rows and an allocation-free Kuhn augmentation.
//   * CompletabilityMemo — open-addressing PackedWord -> bool table over an
//     Arena; the R̄ DFS queries it once per distinct partial word.
//
// These kernels are pure functions of their operands; bit-identity against
// the pre-rewrite set/map-based reference implementations is asserted by
// tests/prop/prop_kernels_test.cpp, and bench/bench_perf_engine.cpp
// (BM_DominationFilter, BM_RightClosure, BM_SubsetSweep) tracks them in the
// committed BENCH_speedup.json trajectory.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "re/label_set.hpp"
#include "re/types.hpp"
#include "util/arena.hpp"

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

/// Open-addressing PackedWord -> bool memo over an Arena.  Growth rehashes
/// into a fresh arena block and abandons the old table; the arena reclaims
/// everything at reset, so the memo must live in a reset-only (non-LIFO)
/// arena.  Key ~0 is unreachable (its lane sum exceeds any degree <= 15) and
/// serves as the empty sentinel.
///
/// The slot index is the *high* log2(capacity) bits of the Fibonacci
/// product w * 0x9E3779B97F4A7C15.  Its low bits would depend only on the
/// low bits of w -- at 4096 slots, only the counts of labels 0..2 -- and
/// every key agreeing on those labels would pile into one linear-probe run.
class CompletabilityMemo {
 public:
  explicit CompletabilityMemo(util::Arena& arena) : arena_(&arena) {
    allocate(kInitialCapacity);
  }

  /// Returns the cached verdict for `w`, computing it with `compute()` on
  /// the first query.
  template <typename ComputeFn>
  bool getOrCompute(PackedWord w, ComputeFn&& compute) {
    assert(w != kEmpty);
    Entry* e = find(w);
    if (e->key == w) return e->value;
    const bool value = compute();
    // compute() never touches this memo (it only scans the word table), so
    // the slot is still free; fill it and grow at 70% load.
    e->key = w;
    e->value = value;
    if (++size_ * 10 >= capacity_ * 7) grow();
    return value;
  }

  /// How many slots past its home slot the probe for `w` runs (0 when `w`
  /// sits in its home slot).  Lets tests see the hash spread keys out.
  [[nodiscard]] std::size_t probeDistance(PackedWord w) const {
    return (static_cast<std::size_t>(find(w) - table_) - home(w)) &
           (capacity_ - 1);
  }

 private:
  struct Entry {
    PackedWord key;
    bool value;
  };

  static constexpr PackedWord kEmpty = ~PackedWord{0};
  static constexpr std::size_t kInitialCapacity = 256;  // power of two

  std::size_t home(PackedWord w) const {
    return static_cast<std::size_t>((w * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  Entry* find(PackedWord w) const {
    std::size_t i = home(w);
    while (table_[i].key != w && table_[i].key != kEmpty) {
      i = (i + 1) & (capacity_ - 1);
    }
    return &table_[i];
  }

  void allocate(std::size_t capacity) {
    capacity_ = capacity;
    shift_ = 64 - __builtin_ctzll(capacity);
    size_ = 0;
    table_ = arena_->allocate<Entry>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) table_[i].key = kEmpty;
  }

  void grow() {
    Entry* old = table_;
    const std::size_t oldCapacity = capacity_;
    allocate(oldCapacity * 2);
    for (std::size_t i = 0; i < oldCapacity; ++i) {
      if (old[i].key == kEmpty) continue;
      Entry* e = find(old[i].key);
      *e = old[i];
      ++size_;
    }
  }

  util::Arena* arena_;
  Entry* table_ = nullptr;
  std::size_t capacity_ = 0;
  int shift_ = 64;  // 64 - log2(capacity_)
  std::size_t size_ = 0;
};

}  // namespace relb::re::kernels
