#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace relb::util {
namespace {

TEST(Arena, AllocationsAreDisjointAndWritable) {
  Arena arena;
  int* a = arena.allocate<int>(10);
  int* b = arena.allocate<int>(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int i = 0; i < 10; ++i) {
    a[i] = i;
    b[i] = 100 + i;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], 100 + i);
  }
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  (void)arena.allocateBytes(1, 1);  // misalign the cursor
  for (const std::size_t align : {2, 8, 64, 256}) {
    void* p = arena.allocateBytes(align, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "alignment " << align;
  }
}

TEST(Arena, RewindReusesMemoryInLifoOrder) {
  Arena arena;
  (void)arena.allocate<int>(4);
  const Arena::Mark m = arena.mark();
  int* first = arena.allocate<int>(8);
  arena.rewind(m);
  int* second = arena.allocate<int>(8);
  EXPECT_EQ(first, second);
}

TEST(Arena, ResetKeepsCapacity) {
  Arena arena(64);
  // Force several chunks.
  for (int i = 0; i < 10; ++i) (void)arena.allocate<std::uint64_t>(64);
  const std::size_t capacity = arena.capacityBytes();
  EXPECT_GT(capacity, 0u);
  arena.reset();
  EXPECT_EQ(arena.capacityBytes(), capacity);
  // A warmed arena services the same workload without growing.
  for (int i = 0; i < 10; ++i) (void)arena.allocate<std::uint64_t>(64);
  EXPECT_EQ(arena.capacityBytes(), capacity);
}

TEST(Arena, GrowsForOversizedRequests) {
  Arena arena(64);
  double* big = arena.allocate<double>(10'000);
  ASSERT_NE(big, nullptr);
  big[0] = 1.5;
  big[9'999] = 2.5;
  EXPECT_EQ(big[0], 1.5);
  EXPECT_EQ(big[9'999], 2.5);
  EXPECT_GE(arena.capacityBytes(), 10'000 * sizeof(double));
}

}  // namespace
}  // namespace relb::util
