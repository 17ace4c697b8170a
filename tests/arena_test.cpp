// PacketArena unit tests: size-class rounding, freelist recycling, chunk
// reservation, and arena-backed ClassQueue/MultiClassBacklog rings.
#include <gtest/gtest.h>

#include "packet/arena.hpp"
#include "queueing/backlog.hpp"
#include "queueing/class_queue.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

TEST(PacketArena, BlockSizesArePowersOfTwoWithAFloor) {
  EXPECT_EQ(PacketArena::block_size(1), 64u);
  EXPECT_EQ(PacketArena::block_size(64), 64u);
  EXPECT_EQ(PacketArena::block_size(65), 128u);
  EXPECT_EQ(PacketArena::block_size(128), 128u);
  EXPECT_EQ(PacketArena::block_size(1000), 1024u);
  EXPECT_EQ(PacketArena::block_size(4096), 4096u);
  EXPECT_EQ(PacketArena::block_size(4097), 8192u);
}

TEST(PacketArena, ReleasedBlockIsReusedForTheSameSizeClass) {
  PacketArena arena;
  void* a = arena.acquire(300);  // 512-byte class
  arena.release(a, 300);
  void* b = arena.acquire(400);  // same 512-byte class
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.freelist_hits(), 1u);
  EXPECT_EQ(arena.blocks_acquired(), 2u);
  EXPECT_EQ(arena.blocks_released(), 1u);
}

TEST(PacketArena, DistinctSizeClassesKeepDistinctFreelists) {
  PacketArena arena;
  void* small = arena.acquire(64);
  arena.release(small, 64);
  // A 128-byte request must not be served from the 64-byte freelist.
  void* larger = arena.acquire(128);
  EXPECT_NE(small, larger);
  EXPECT_EQ(arena.freelist_hits(), 0u);
}

TEST(PacketArena, ReserveMakesSubsequentAcquisitionsChunkFree) {
  PacketArena arena(4096);
  arena.reserve(2048);
  const auto chunks = arena.chunks_allocated();
  for (int i = 0; i < 16; ++i) arena.acquire(128);  // 16 * 128 == 2048
  EXPECT_EQ(arena.chunks_allocated(), chunks);
}

TEST(PacketArena, OversizeRequestGetsItsOwnChunk) {
  PacketArena arena(1024);
  const auto before = arena.bytes_in_chunks();
  void* big = arena.acquire(8192);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_in_chunks() - before, 8192u);
}

TEST(PacketArena, ManyAcquireReleaseCyclesAllocateChunksOnce) {
  PacketArena arena;
  for (int cycle = 0; cycle < 100; ++cycle) {
    void* p = arena.acquire(512);
    arena.release(p, 512);
  }
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  EXPECT_EQ(arena.freelist_hits(), 99u);
}

TEST(ClassQueue, ArenaBackedRingGrowsThroughTheArena) {
  PacketArena arena;
  {
    ClassQueue q;
    q.set_arena(&arena);
    EXPECT_TRUE(q.arena_backed());
    for (std::uint64_t i = 0; i < 100; ++i) {
      q.push(testutil::packet(i, 0, 100, static_cast<double>(i)));
    }
    EXPECT_GT(arena.blocks_acquired(), 0u);
    // Growth recycled the smaller rings into the freelist.
    EXPECT_GT(arena.blocks_released(), 0u);
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(q.pop().id, i);
    }
  }
  // Destruction returned the final ring too.
  EXPECT_EQ(arena.blocks_acquired(), arena.blocks_released());
}

TEST(ClassQueue, SetArenaAfterFirstPushIsRejected) {
  PacketArena arena;
  ClassQueue q;
  q.push(testutil::packet(0, 0, 100, 0.0));
  EXPECT_THROW(q.set_arena(&arena), std::invalid_argument);
}

TEST(ClassQueue, MoveTransfersArenaOwnership) {
  PacketArena arena;
  ClassQueue q;
  q.set_arena(&arena);
  q.push(testutil::packet(7, 0, 100, 0.0));
  ClassQueue moved(std::move(q));
  EXPECT_TRUE(moved.arena_backed());
  EXPECT_EQ(moved.pop().id, 7u);
}

TEST(MultiClassBacklog, ArenaBackedBacklogKeepsHeadSnapshotExact) {
  PacketArena arena;
  MultiClassBacklog backlog(3, &arena);
  backlog.push(testutil::packet(0, 1, 200, 5.0));
  backlog.push(testutil::packet(1, 1, 300, 6.0));
  backlog.push(testutil::packet(2, 2, 400, 7.0));
  EXPECT_EQ(backlog.head_of(0).packets, 0u);
  EXPECT_EQ(backlog.head_of(1).packets, 2u);
  EXPECT_EQ(backlog.head_of(2).packets, 1u);
  EXPECT_EQ(backlog.head_of(1).bytes, 500u);
  EXPECT_DOUBLE_EQ(backlog.head_of(1).arrival, 5.0);
  EXPECT_EQ(backlog.head_of(1).head_bytes, 200u);
  backlog.pop(1);
  EXPECT_DOUBLE_EQ(backlog.head_of(1).arrival, 6.0);
  EXPECT_EQ(backlog.head_of(1).head_bytes, 300u);
  backlog.pop(1);
  EXPECT_EQ(backlog.head_of(1).packets, 0u);
  EXPECT_EQ(backlog.head_of(1).bytes, 0u);
}

}  // namespace
}  // namespace pds
