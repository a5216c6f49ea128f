// FrameArena: the thread-local pool behind coroutine frames and boxed
// SmallFn callbacks. Verifies block reuse (the allocation-free steady
// state), stats accounting, trim() teardown, thread isolation, and the
// tagged block header that SimCheck finds in front of every frame — run
// under ASan/LSan in CI, which would catch double-frees and leaks in the
// free-list plumbing, and sees the poisoning of free blocks.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/frame_arena.hpp"
#include "sim/simulation.hpp"
#include "sim/small_fn.hpp"
#include "sim/task.hpp"

namespace {

using ppfs::sim::FrameArena;
using ppfs::sim::FrameHeader;
using ppfs::sim::Simulation;
using ppfs::sim::SmallFn;
using ppfs::sim::Task;

TEST(FrameArena, ReusesFreedBlocksOfTheSameClass) {
  FrameArena arena;
  void* a = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xAB, 100);  // ASan checks the block is really writable
  arena.deallocate(a);
  EXPECT_EQ(arena.stats().cached_blocks, 1u);

  // Same size class (64-byte granularity): must come from the free list.
  void* b = arena.allocate(80);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.stats().pool_hits, 1u);
  EXPECT_EQ(arena.stats().allocs, 2u);
  EXPECT_EQ(arena.stats().cached_blocks, 0u);
  arena.deallocate(b);
}

TEST(FrameArena, LiveCountTracksOutstandingBlocks) {
  FrameArena arena;
  void* a = arena.allocate(64);
  void* b = arena.allocate(512);
  EXPECT_EQ(arena.stats().live, 2u);
  arena.deallocate(a);
  EXPECT_EQ(arena.stats().live, 1u);
  arena.deallocate(b);
  EXPECT_EQ(arena.stats().live, 0u);
}

TEST(FrameArena, TrimReleasesEveryCachedBlock) {
  FrameArena arena;
  void* blocks[8];
  for (auto& p : blocks) p = arena.allocate(200);
  for (auto* p : blocks) arena.deallocate(p);
  EXPECT_EQ(arena.stats().cached_blocks, 8u);
  EXPECT_GT(arena.stats().cached_bytes, 0u);

  arena.trim();
  EXPECT_EQ(arena.stats().cached_blocks, 0u);
  EXPECT_EQ(arena.stats().cached_bytes, 0u);
  EXPECT_GE(arena.stats().trims, 8u);

  // The arena stays usable after a trim.
  void* p = arena.allocate(200);
  ASSERT_NE(p, nullptr);
  arena.deallocate(p);
}

Task<void> hopper(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

TEST(FrameArena, CoroutineFramesRecycleAcrossRuns) {
  FrameArena& arena = FrameArena::local();
  // Warm the pool: the first simulation's frames land on the free lists
  // when it completes.
  {
    Simulation sim;
    for (int p = 0; p < 8; ++p) sim.spawn(hopper(sim, 4));
    sim.run();
  }
  const auto before = arena.stats();
  EXPECT_EQ(before.live, 0u);

  // An identical second run must be served from the pool.
  {
    Simulation sim;
    for (int p = 0; p < 8; ++p) sim.spawn(hopper(sim, 4));
    sim.run();
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.live, 0u);
  const auto new_allocs = after.allocs - before.allocs;
  const auto new_hits = after.pool_hits - before.pool_hits;
  EXPECT_GT(new_allocs, 0u);
  EXPECT_EQ(new_hits, new_allocs) << "second run should be allocation-free";
}

TEST(FrameArena, LiveBytesAndTheirPeakRestartAtResetPeak) {
  FrameArena arena;
  void* a = arena.allocate(100);  // 128-byte block
  void* b = arena.allocate(200);  // 256-byte block
  EXPECT_EQ(arena.stats().live_bytes, 384u);
  EXPECT_EQ(arena.stats().peak_live_bytes, 384u);
  arena.deallocate(b);
  EXPECT_EQ(arena.stats().live_bytes, 128u);
  EXPECT_EQ(arena.stats().peak_live_bytes, 384u);
  // The peak restarts at what is live now, which reset_peak() returns.
  EXPECT_EQ(arena.reset_peak(), 128u);
  EXPECT_EQ(arena.stats().peak_live_bytes, 128u);
  void* c = arena.allocate(40);  // 64-byte block, from a fresh class
  EXPECT_EQ(arena.stats().peak_live_bytes, 192u);
  arena.deallocate(c);
  arena.deallocate(a);
  EXPECT_EQ(arena.stats().live_bytes, 0u);
}

TEST(FrameArena, FreeListsAreUncapped) {
  // Blocks go back to the system only at trim(): a dead frame's header
  // stays readable however many blocks of its class were freed before it.
  FrameArena arena;
  std::vector<void*> blocks(3000);
  for (void*& p : blocks) p = arena.allocate(100);
  for (void* p : blocks) arena.deallocate(p);
  EXPECT_EQ(arena.stats().cached_blocks, 3000u);
  EXPECT_EQ(arena.stats().trims, 0u);
}

// Awaiting this hands the awaiting coroutine's frame address to `out` and
// resumes it at once.
auto frame_address(void*& out) {
  struct Awaiter {
    void*& out;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const noexcept {
      out = h.address();
      return false;
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{out};
}

// True when `p` is one FrameHeader past the start of a live arena block:
// the header there carries the arena's tag and a size class that holds it.
bool sits_past_tagged_block(const void* p) {
  const FrameHeader& h = FrameArena::header_of(p);
  return h.tag == FrameArena::kTag && h.block_bytes % 64 == 0 &&
         h.block_bytes > FrameArena::kHeaderSize;
}

Task<void> note_own_frame(bool& tagged) {
  void* at = nullptr;
  co_await frame_address(at);
  tagged = sits_past_tagged_block(at);
}

Task<void> await_child(bool& tagged) { co_await note_own_frame(tagged); }

TEST(FrameArena, FramesAndBoxedCallbacksSitOneHeaderPastATaggedBlock) {
  // SimCheck keeps its per-frame ledger in the header in front of a frame,
  // found from the coroutine handle's address. That holds only while the
  // address is the pointer PooledFrame::operator new returned, as GCC
  // makes it; a compiler that offset or elided the frame allocation would
  // fail here.
  const std::uint64_t live_before = FrameArena::local().stats().live;

  // A Task frame created directly (never started).
  bool unused = false;
  auto direct = note_own_frame(unused).release();
  EXPECT_EQ(FrameArena::local().stats().live, live_before + 1);
  EXPECT_TRUE(sits_past_tagged_block(direct.address()));
  direct.destroy();

  // A Task frame created inside a co_await chain, checked from within.
  bool tagged = false;
  {
    Task<void> chain = await_child(tagged);
    chain.await_suspend(std::noop_coroutine()).resume();
    ASSERT_TRUE(chain.done());
  }
  EXPECT_TRUE(tagged);

  // A callable too big to sit inline in a SmallFn lives in an arena box.
  struct Boxed {
    void** out;
    std::uint64_t pad[3];
    void operator()() { *out = this; }
  };
  void* box = nullptr;
  {
    SmallFn fn(Boxed{&box, {}});
    fn();
    EXPECT_TRUE(sits_past_tagged_block(box));
  }
  EXPECT_EQ(FrameArena::local().stats().live, live_before);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FrameArena, FreedBlockIsPoisonedPastItsHeader) {
  // Free blocks never return to the heap, so the arena poisons them itself:
  // a stray access into a dead frame is still an ASan report.
  bool tagged = false;
  auto h = note_own_frame(tagged).release();
  void* frame = h.address();
  const char* header = static_cast<const char*>(frame) - FrameArena::kHeaderSize;
  h.destroy();
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  EXPECT_EQ(__asan_region_is_poisoned(const_cast<char*>(header), FrameArena::kHeaderSize),
            nullptr);
  // Handing the block out again unpoisons it.
  auto again = note_own_frame(tagged).release();
  ASSERT_EQ(again.address(), frame);
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  again.destroy();
}
#endif

TEST(FrameArena, ThreadsHaveIndependentArenas) {
  FrameArena* main_arena = &FrameArena::local();
  FrameArena* worker_arena = nullptr;
  std::uint64_t worker_live = 1;
  std::thread t([&] {
    worker_arena = &FrameArena::local();
    void* p = worker_arena->allocate(128);
    worker_live = worker_arena->stats().live;
    worker_arena->deallocate(p);
  });
  t.join();
  EXPECT_NE(worker_arena, nullptr);
  EXPECT_NE(worker_arena, main_arena);
  EXPECT_EQ(worker_live, 1u);
}

}  // namespace
