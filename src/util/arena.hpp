// Monotonic arena allocation for the engine's per-step scratch structures.
//
// The R̄ sweep allocates and frees the same transient buffers (DFS level
// sets, label columns, deduplication bitsets) once per DFS node; on
// the malloc heap that traffic dominates small-step wall time.  An Arena
// turns every allocation into a bump of a chunk cursor and every free into
// nothing: memory is reclaimed wholesale by reset() between steps (or by
// rewinding to a Mark for LIFO-scoped buffers such as DFS levels).
//
// Rules:
//   * Only trivially-destructible payloads: the arena never runs
//     destructors.  allocate<T>() enforces this statically.
//   * Not thread-safe.  Parallel consumers keep one arena per lane
//     (re_step.cpp uses one thread_local arena; see stepScratch()).
//   * rewind(mark) only reclaims allocations made after mark() in LIFO
//     order.  Structures with non-LIFO lifetime (growing tables, result
//     accumulators) belong in a separate arena that is only ever reset().
//   * Chunks persist across reset(): a warmed arena services a whole chain
//     of steps without touching malloc again.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace relb::util {

class Arena {
 public:
  explicit Arena(std::size_t firstChunkBytes = 1 << 16)
      : firstChunkBytes_(firstChunkBytes < 64 ? 64 : firstChunkBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Position of the bump cursor; pass to rewind() to reclaim everything
  /// allocated after this point (LIFO discipline only).
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const { return {current_, used_}; }

  void rewind(Mark m) {
    assert(m.chunk < chunks_.size() || (m.chunk == 0 && chunks_.empty()));
    current_ = m.chunk;
    used_ = m.used;
  }

  /// Reclaims every allocation but keeps the chunks for reuse.
  void reset() {
    current_ = 0;
    used_ = 0;
  }

  /// Uninitialized storage for `n` objects of T.  T must be trivially
  /// destructible (the arena never destroys) and trivially copyable keeps
  /// rewinds safe for every consumer in this repo.
  template <typename T>
  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(allocateBytes(n * sizeof(T), alignof(T)));
  }

  [[nodiscard]] void* allocateBytes(std::size_t bytes, std::size_t align) {
    assert(align > 0 && (align & (align - 1)) == 0);
    if (chunks_.empty()) addChunk(bytes);
    for (;;) {
      Chunk& c = chunks_[current_];
      const std::size_t base =
          reinterpret_cast<std::uintptr_t>(c.data.get()) + used_;
      const std::size_t padding = (align - (base & (align - 1))) & (align - 1);
      if (used_ + padding + bytes <= c.size) {
        void* out = c.data.get() + used_ + padding;
        used_ += padding + bytes;
        return out;
      }
      if (current_ + 1 < chunks_.size() &&
          chunks_[current_ + 1].size >= bytes + align) {
        ++current_;
        used_ = 0;
        continue;
      }
      addChunk(bytes + align);
      // addChunk positioned current_ at the fresh chunk.
    }
  }

  /// Total bytes owned (all chunks, used or not); a capacity high-water mark
  /// for tests and stats.
  [[nodiscard]] std::size_t capacityBytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void addChunk(std::size_t atLeast) {
    std::size_t size = chunks_.empty() ? firstChunkBytes_
                                       : chunks_.back().size * 2;
    if (size < atLeast) size = atLeast;
    // Left uninitialized (as allocate() promises): zeroing would touch every
    // page on this thread, and large consumers such as the CSR builder
    // first-touch their arrays from many lanes.
    chunks_.push_back(
        {std::make_unique_for_overwrite<std::byte[]>(size), size});
    current_ = chunks_.size() - 1;
    used_ = 0;
  }

  std::size_t firstChunkBytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  std::size_t used_ = 0;
};

}  // namespace relb::util
