// The thread-pool utility: width resolution, dynamic fan-out, ordered
// reduction, exception propagation, and safe nesting.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace relb::util {
namespace {

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolveThreadCount(0), 1);
  EXPECT_EQ(resolveThreadCount(1), 1);
  EXPECT_EQ(resolveThreadCount(7), 7);
  // Non-positive requests all mean "one lane per hardware core".
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolveThreadCount(-3), hw > 0 ? static_cast<int>(hw) : 1);
  EXPECT_EQ(resolveThreadCount(-3), resolveThreadCount(0));
}

TEST(AvailableCpuCount, IsAtLeastOneAndAtMostTheHardwareConcurrency) {
  const int cpus = availableCpuCount();
  EXPECT_GE(cpus, 1);
  EXPECT_LE(cpus, resolveThreadCount(0));
}

#ifdef __linux__
TEST(AvailableCpuCount, FollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = availableCpuCount();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
}
#endif

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(1000);
    parallel_for(threads, visits.size(),
                 [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, SlotWritesAreDeterministic) {
  // Results written into index-addressed slots are identical across widths.
  std::vector<std::vector<long>> results;
  for (const int threads : {1, 2, 8}) {
    std::vector<long> out(5000);
    parallel_for(threads, out.size(),
                 [&](std::size_t i) { out[i] = static_cast<long>(i * i % 97); });
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelFor, WidthBeyondHardwareConcurrencyWorks) {
  // Explicit widths are honored even on small machines (this is what lets
  // the engine determinism tests genuinely multithread on any box).
  std::atomic<long> sum{0};
  parallel_for(8, 10000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
  EXPECT_GE(ThreadPool::global().concurrency(), 8);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        parallel_for(threads, 100,
                     [&](std::size_t i) {
                       if (i == 37) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A parallel_for issued from inside a pool task must not deadlock; it runs
  // inline on the worker.
  std::vector<std::atomic<int>> visits(64 * 16);
  parallel_for(4, 64, [&](std::size_t outer) {
    parallel_for(4, 16, [&](std::size_t inner) {
      visits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelReduce, CombinesChunksInOrder) {
  // Concatenation is order-sensitive; chunk-ordered combining must rebuild
  // the identity permutation for any width.
  std::vector<int> serial(1000);
  std::iota(serial.begin(), serial.end(), 0);
  for (const int threads : {1, 2, 8}) {
    const auto out = parallel_reduce(
        threads, serial.size(), std::vector<int>{},
        [](std::size_t begin, std::size_t end) {
          std::vector<int> part;
          for (std::size_t i = begin; i < end; ++i) {
            part.push_back(static_cast<int>(i));
          }
          return part;
        },
        [](std::vector<int> acc, std::vector<int> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const auto out = parallel_reduce(
      4, 0, 42, [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(out, 42);
}

TEST(ThreadPool, StandalonePoolRunsBatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3);
  std::vector<std::atomic<int>> visits(100);
  for (int round = 0; round < 10; ++round) {
    pool.forEachIndex(visits.size(),
                      [&](std::size_t i) { visits[i].fetch_add(1); });
  }
  for (const auto& v : visits) EXPECT_EQ(v.load(), 10);
}

TEST(ThreadPool, BackToBackTinyBatchesStayInTheirBatch) {
  // 10^5 tiny batches issued back to back, growing the pool mid-stream:
  // every batch must run each of its items exactly once, and no worker that
  // wakes late may run items of the batch it did not pin (which used to
  // crash on a stale job pointer or double-run a later batch's item).
  constexpr int kBatches = 100'000;
  ThreadPool pool(2);
  int b = 0;
  for (const std::size_t width : {2, 4, 16}) {
    pool.ensureConcurrency(static_cast<int>(width));
    for (const int end = b + kBatches / 3 + (width == 16 ? kBatches % 3 : 0);
         b < end; ++b) {
      std::atomic<std::size_t> ran{0};
      std::atomic<std::uint32_t> mask{0};
      pool.forEachIndex(width, [&, b](std::size_t i) {
        ASSERT_LT(i, width) << "batch " << b;
        mask.fetch_or(1u << i, std::memory_order_relaxed);
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(ran.load(), width) << "batch " << b;
      ASSERT_EQ(mask.load(), (1u << width) - 1) << "batch " << b;
    }
  }
  EXPECT_EQ(b, kBatches);
  EXPECT_EQ(pool.concurrency(), 16);
}

}  // namespace
}  // namespace relb::util
