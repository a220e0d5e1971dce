// A small reusable thread pool with deterministic fan-out helpers.
//
// The engine's parallel sections all follow the same discipline: work items
// are indexed, every item's result is written into an index-addressed slot,
// and merges happen in index order on the calling thread.  Under that
// discipline the output is bit-identical for every thread count, so
// `numThreads` is purely a performance knob (this is asserted by the
// determinism tests in tests/re/re_step_parallel_test.cpp).
//
// Width semantics everywhere in the repo:
//   numThreads == 0  ->  one thread per hardware core,
//   numThreads == 1  ->  fully serial (the pool is never touched),
//   numThreads >= 2  ->  exactly that many lanes, even beyond the core count
//                        (useful for determinism tests on small machines).
// The one exception is a pass whose total work grows with its lane count
// (CsrGraph::fromParents's owner scans): it uses no more lanes than
// availableCpuCount().
//
// Nested parallel sections run inline on the worker that encounters them:
// a pool worker never blocks on work that only other pool workers could
// execute, so composing parallel_for calls cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace relb::util {

/// The engine-wide default for every user-facing thread-count knob
/// (StepOptions::numThreads, certifyChain, ...): one
/// thread per hardware core.  All defaults route through this constant so
/// low-level helpers and the pass pipeline agree; pass kSerial to opt out.
inline constexpr int kDefaultNumThreads = 0;

/// Fully serial execution (the pool is never touched).
inline constexpr int kSerialNumThreads = 1;

/// Resolves a user-facing thread-count option: 0 means "hardware
/// concurrency"; anything else is clamped to at least 1.
[[nodiscard]] int resolveThreadCount(int requested);

/// The CPUs this process can actually run on: the hardware concurrency,
/// lowered by the scheduler affinity mask (taskset, cpuset) and by a cgroup
/// CPU quota rounded up to whole CPUs (cgroup v2 cpu.max or v1
/// cpu.cfs_quota_us at the cgroup root).  At least 1.  Only for passes
/// whose total work grows with the number of lanes, which should not use
/// more lanes than can run at once; everything else follows the width.
[[nodiscard]] int availableCpuCount();

/// True while the calling thread is executing a ThreadPool task.
[[nodiscard]] bool insideWorker();

/// A fixed-purpose pool: one fan-out batch at a time, dynamically scheduled,
/// with the calling thread participating as an extra lane.  Exceptions
/// thrown by items are captured and the first one is rethrown on the caller
/// after the batch drains.
class ThreadPool {
 public:
  /// Spawns `resolveThreadCount(numThreads) - 1` workers; the thread calling
  /// forEachIndex always participates, so total concurrency is the resolved
  /// count.  The pool.* counters/gauges live in the global registry.
  explicit ThreadPool(int numThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers + the calling thread.
  [[nodiscard]] int concurrency();

  /// Grows the pool so that concurrency() >= threads.  Never shrinks.
  void ensureConcurrency(int threads);

  /// Runs `fn(i)` for every i in [0, n), distributing items dynamically over
  /// the workers and the calling thread; blocks until all items finished.
  /// Items are claimed in increasing order but may complete in any order --
  /// callers must write results into index-addressed slots.
  void forEachIndex(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, created on first use and grown on demand by the
  /// helpers below.
  static ThreadPool& global();

 private:
  /// One forEachIndex call.  Every field a lane touches lives here, and a
  /// worker claims items only through the batch it pinned under mutex_, so
  /// a worker that wakes late sees no batch or the next one whole -- never
  /// one batch's function with another's cursor.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t size = 0;
    std::atomic<std::size_t> next{0};
    int running = 0;             // pinned workers; guarded by mutex_
    std::exception_ptr error;    // first item failure; guarded by mutex_
  };

  void workerLoop();
  void runItems(Batch& batch);
  void spawnWorkersLocked(int count);

  // pool.* instrumentation, interned once from the global registry.
  obs::Counter& batchesCounter_;
  obs::Counter& itemsCounter_;
  obs::Gauge& concurrencyGauge_;
  obs::Gauge& activeGauge_;
  obs::Gauge& maxBatchGauge_;

  std::vector<std::thread> workers_;

  std::mutex batchMutex_;  // serializes concurrent forEachIndex callers

  std::mutex mutex_;
  std::condition_variable hasWork_;
  std::condition_variable batchDone_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  /// The batch in flight (nullptr between batches), owned by the
  /// forEachIndex frame.  A worker pins it under mutex_ by bumping
  /// `running`; the caller clears it only once no worker is pinned.
  Batch* batch_ = nullptr;
};

/// Runs `fn(i)` for i in [0, n) on up to `numThreads` lanes (dynamic
/// scheduling, deterministic as long as fn(i) only writes slot i).
/// numThreads <= 1, n <= 1, or a nested call runs inline.
template <typename Fn>
void parallel_for(int numThreads, std::size_t n, Fn&& fn) {
  const std::size_t width =
      std::min(static_cast<std::size_t>(resolveThreadCount(numThreads)), n);
  if (width <= 1 || insideWorker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  pool.ensureConcurrency(static_cast<int>(width));
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)> lane = [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);  // stop claiming items
        throw;
      }
    }
  };
  pool.forEachIndex(width, lane);
}

/// Splits [0, n) into up to `numThreads` contiguous chunks, maps every chunk
/// to a partial result with `mapChunk(begin, end) -> T`, and folds the
/// partial results **in chunk order** with `combine(acc, part) -> T`.  The
/// chunk boundaries depend only on n and the resolved width, and the fold is
/// left-to-right on the calling thread, so the result is deterministic for a
/// fixed width; when the combine operation is associative and commutative
/// (set unions, concatenation followed by sorting) it is identical across
/// widths as well.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(int numThreads, std::size_t n, T init, MapFn&& mapChunk,
                  CombineFn&& combine) {
  const std::size_t width =
      std::min(static_cast<std::size_t>(resolveThreadCount(numThreads)), n);
  if (width <= 1 || insideWorker()) {
    if (n > 0) init = combine(std::move(init), mapChunk(std::size_t{0}, n));
    return init;
  }
  std::vector<T> parts(width);
  parallel_for(static_cast<int>(width), width, [&](std::size_t c) {
    const std::size_t begin = n * c / width;
    const std::size_t end = n * (c + 1) / width;
    parts[c] = mapChunk(begin, end);
  });
  for (T& part : parts) init = combine(std::move(init), std::move(part));
  return init;
}

}  // namespace relb::util
