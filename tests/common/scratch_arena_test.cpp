// ScratchArena semantics: lease reuse, nesting, zeroing, and the hit/miss
// counters that the steady-state allocation tests pin against.
#include "common/scratch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

namespace ice {
namespace {

TEST(ScratchArenaTest, FirstTakeMissesThenReuses) {
  ScratchArena arena;
  EXPECT_EQ(arena.stats().hits, 0u);
  EXPECT_EQ(arena.stats().misses, 0u);

  { auto lease = arena.take(128); }
  EXPECT_EQ(arena.stats().misses, 1u);

  // Same-or-smaller request reuses the returned buffer: a hit.
  { auto lease = arena.take(64); }
  EXPECT_EQ(arena.stats().hits, 1u);
  EXPECT_EQ(arena.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(arena.stats().hit_rate(), 0.5);
}

TEST(ScratchArenaTest, GrowingRequestIsAMiss) {
  ScratchArena arena;
  { auto lease = arena.take(16); }
  { auto lease = arena.take(1024); }  // must grow: counts as a miss
  EXPECT_EQ(arena.stats().misses, 2u);

  { auto lease = arena.take(1024); }  // now sized: a hit
  EXPECT_EQ(arena.stats().hits, 1u);
}

TEST(ScratchArenaTest, SmallLeaseLeavesTheLargeBufferFree) {
  // Warm with a large and a small buffer, returned large-last. A small
  // request must then take the small buffer, so a large request nested
  // inside it still finds the large one: no miss in any order.
  ScratchArena arena;
  {
    auto large = arena.take(1024);
    auto small = arena.take(16);
  }
  EXPECT_EQ(arena.stats().misses, 2u);
  {
    auto small = arena.take(16);
    auto large = arena.take(1024);
  }
  {
    auto large = arena.take(1024);
    auto small = arena.take(16);
  }
  EXPECT_EQ(arena.stats().misses, 2u);
  EXPECT_EQ(arena.stats().hits, 4u);
}

TEST(ScratchArenaTest, NestedLeasesAreIndependent) {
  ScratchArena arena;
  auto outer = arena.take(32);
  std::memset(outer.data(), 0xab, 32 * sizeof(std::uint64_t));
  {
    auto inner = arena.take(32);
    ASSERT_NE(inner.data(), outer.data());
    std::memset(inner.data(), 0xcd, 32 * sizeof(std::uint64_t));
  }
  EXPECT_EQ(outer.data()[0], 0xabababababababababULL);
}

TEST(ScratchArenaTest, TakeZeroedZeroesExactlyTheRequestedWords) {
  ScratchArena arena;
  {  // dirty the buffer first
    auto lease = arena.take(64);
    std::memset(lease.data(), 0xff, 64 * sizeof(std::uint64_t));
  }
  auto lease = arena.take_zeroed(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(lease.data()[i], 0u);
}

// A fresh thread's arena has no buffer to hand out: a zero-word zeroed
// lease must not pass memset the empty buffer's null data().
TEST(ScratchArenaTest, ZeroWordZeroedLeaseOnAFreshThread) {
  std::size_t words = 1;
  std::thread([&words] {
    auto lease = ScratchArena::local().take_zeroed(0);
    words = lease.words();
  }).join();
  EXPECT_EQ(words, 0u);
}

TEST(ScratchArenaTest, ResetStatsClearsCounters) {
  ScratchArena arena;
  { auto lease = arena.take(8); }
  arena.reset_stats();
  EXPECT_EQ(arena.stats().hits, 0u);
  EXPECT_EQ(arena.stats().misses, 0u);
}

}  // namespace
}  // namespace ice
