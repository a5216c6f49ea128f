// Allocations per event — a deterministic host-cost counter for the DES
// kernel with SimCheck on.
//
// Global operator new is replaced with one that counts calls, which affects
// everything linked into the binary; that is why this test has a binary of
// its own. After a warm-up, a loop of processes that create and await child
// Tasks, take an uncontended Resource and delay must dispatch at least
// 10,000 events without one heap allocation: frames come from the
// FrameArena, the event queue is pre-sized, and the auditor's bookkeeping
// (pending-frame counts, the destroyed-frame registry, resource ledgers)
// lives in flat tables and in the Resource itself.
//
// The content store rides along: its chunks come from the mount's
// ContentArena, so writing fresh chunks allocates only when the chunk
// index or the arena's slab list grows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "ufs/block_store.hpp"

namespace {

std::atomic<std::uint64_t> g_operator_new_calls{0};

}  // namespace

void* operator new(std::size_t n) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ppfs::sim {
namespace {

#if !defined(PPFS_SIMCHECK)
#error "test_alloc_per_event measures the SimCheck build (the default)"
#endif

constexpr int kWorkers = 4;
constexpr int kRounds = 1500;  // 2 events per round per worker: 12,000 events

Task<int> child(Simulation& sim, Resource& res, int round) {
  auto guard = co_await res.acquire(1);  // capacity == kWorkers: never queues
  co_await sim.delay(0.001);
  co_return round;
}

Task<void> worker(Simulation& sim, Resource& res, std::uint64_t& sum) {
  for (int r = 0; r < kRounds; ++r) {
    sum += static_cast<std::uint64_t>(co_await child(sim, res, r));
    co_await sim.delay(0.001);
  }
}

void spawn_workers(Simulation& sim, Resource& res, std::uint64_t& sum) {
  for (int w = 0; w < kWorkers; ++w) sim.spawn(worker(sim, res, sum));
}

TEST(AllocPerEvent, SteadyStateKernelWithSimCheckAllocatesNothing) {
  // The counter must see allocations, or a zero below proves nothing.
  const std::uint64_t probe_before = g_operator_new_calls.load();
  void* volatile probe = ::operator new(64);
  ::operator delete(probe);
  ASSERT_EQ(g_operator_new_calls.load() - probe_before, 1u);

  Simulation sim;
  ASSERT_NE(sim.auditor(), nullptr);
  Resource res(sim, kWorkers);
  std::uint64_t sum = 0;

  // Warm-up. The first pass fills the arena and the event queue. In the
  // second, blocks trade places between spawn wrappers (whose frames the
  // registry does not track) and Tasks, so the destroyed-frame registry
  // reaches its steady-state size.
  for (int pass = 0; pass < 2; ++pass) {
    spawn_workers(sim, res, sum);
    sim.run();
  }

  const std::uint64_t events_before = sim.events_dispatched();
  const std::uint64_t news_before = g_operator_new_calls.load();
  spawn_workers(sim, res, sum);
  sim.run();
  const std::uint64_t news = g_operator_new_calls.load() - news_before;
  const std::uint64_t events = sim.events_dispatched() - events_before;

  ASSERT_GE(events, 10000u);
  EXPECT_EQ(news, 0u) << static_cast<double>(news) / static_cast<double>(events)
                      << " allocations per event over " << events << " events";
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(sim.auditor()->violations().size(), 0u);
  EXPECT_EQ(sim.auditor()->resource_outstanding(&res), 0);
  const std::uint64_t per_pass = static_cast<std::uint64_t>(kWorkers) * kRounds * (kRounds - 1) / 2;
  EXPECT_EQ(sum, 3 * per_pass);
}

TEST(AllocPerEvent, FreshContentChunksAllocateOnlyForIndexGrowth) {
  constexpr ByteCount kChunk = 64 * 1024;
  constexpr std::uint64_t kChunks = 256;
  const std::vector<std::byte> data(kChunk, std::byte{0x5a});
  ufs::ContentArena arena;
  ufs::ContentStore store(arena, kChunk);
  const std::uint64_t news_before = g_operator_new_calls.load();
  for (std::uint64_t c = 0; c < kChunks; ++c) store.write(c * kChunk, data);
  const std::uint64_t news = g_operator_new_calls.load() - news_before;
  ASSERT_EQ(store.chunk_count(), kChunks);
  // Index rehashes 16 -> 512 slots (two vectors each, 12) and slab-list
  // growth 1 -> 8 (4). A heap block per chunk would add 256 more.
  EXPECT_LE(news, 16u);
}

}  // namespace
}  // namespace ppfs::sim
