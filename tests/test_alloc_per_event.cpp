// Allocations per event — a deterministic host-cost counter with SimCheck
// on.
//
// Global operator new is replaced with one that counts calls, which affects
// everything linked into the binary; that is why this test has a binary of
// its own.
//
// The kernel row: after a warm-up, a loop of processes that create and
// await child Tasks, take an uncontended Resource and delay must dispatch
// at least 10,000 events without one heap allocation. Frames come from the
// FrameArena, the event queue is pre-sized, and the auditor's per-frame
// ledger sits in the arena block header in front of each frame, its
// resource ledgers in the Resource itself.
//
// The full-stack rows: a driver call on one shape, short and long, counted
// around the whole call. The difference of the two counts over the
// difference of their events cancels set-up (machine, mount, clients) and
// leaves what the request path allocates per event. The stripe map, the
// request fan-outs, the join states, Event and Resource waiters and the UFS
// runs all keep their per-call scratch inline or in the arena; each row is
// pinned at its exact count.
//
// The content store rides along: its chunks come from the mount's
// ContentArena, so writing fresh chunks allocates only when the chunk
// index or the arena's vector of slabs grows. Taking a slab from the
// thread's free list, or returning one, allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "ufs/block_store.hpp"
#include "workload/experiment.hpp"
#include "workload/open_arrival.hpp"
#include "workload/write_workload.hpp"

namespace {

std::atomic<std::uint64_t> g_operator_new_calls{0};

}  // namespace

// Out of line, with the deletes below: once inlined, GCC's
// -Wmismatched-new-delete sees the malloc and the free and pairs the wrong
// operators, though new and delete here always go together.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

// The array forms count on their own: a sanitizer runtime's operator new[]
// does not forward to the operator new above.
void* operator new[](std::size_t n) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// The nothrow form too: std::stable_sort takes its temporary buffer
// through it, and a sanitizer runtime's version does not forward to the
// operator new above, so its blocks would reach the free below unseen.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

// The aligned forms too: sim::InlineVec spills through them.
void* operator new(std::size_t n, std::align_val_t al) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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

  // Warm-up. The first pass fills the arena and the event queue; after the
  // second, the arena's free lists have grown to the loop's high-water.
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

TEST(AllocPerEvent, ConstructingAResourceAllocatesNothing) {
  // A scaled mesh builds one Resource per link direction (1,296 on an
  // 18x18 mesh); the waiter ring allocates on its first contended acquire.
  Simulation sim;
  const std::uint64_t news_before = g_operator_new_calls.load();
  {
    Resource res(sim, 1);
    EXPECT_EQ(res.queue_length(), 0u);
  }
  EXPECT_EQ(g_operator_new_calls.load() - news_before, 0u);
}

// One driver shape, short and long. Both measured calls run on a fresh
// thread after a warm-up call, so the arena and the event queue start from
// the same state whatever ran before in this process.
struct Row {
  std::uint64_t news = 0;    // long call's allocations minus the short one's
  std::uint64_t events = 0;  // same, for dispatched events
  double per_event() const {
    return static_cast<double>(news) / static_cast<double>(events);
  }
};

template <typename Call>
Row measure(Call call) {
  Row row;
  std::thread worker([&] {
    (void)call(false);  // warm-up
    std::uint64_t before = g_operator_new_calls.load();
    const std::uint64_t short_events = call(false);
    const std::uint64_t short_news = g_operator_new_calls.load() - before;
    before = g_operator_new_calls.load();
    const std::uint64_t long_events = call(true);
    const std::uint64_t long_news = g_operator_new_calls.load() - before;
    row.news = long_news - short_news;
    row.events = long_events - short_events;
  });
  worker.join();
  return row;
}

TEST(AllocPerEvent, OpenArrivalOnTheTenantOpenShape) {
  // perfbench's tenant_open: 256 clients on 64 I/O nodes, 16 Zipf(1.1)
  // tenant files of 2 MB, 64 KB reads, no prefetch; 8 vs 32 requests each.
  workload::MachineSpec machine;
  machine.ncompute = 256;
  machine.nio = 64;
  workload::OpenArrivalSpec spec;
  spec.tenants = 16;
  spec.tenant_skew = 1.1;
  spec.request_size = 64 * 1024;
  spec.mean_interarrival = 0.4;
  spec.tenant_file_size = 2 * 1024 * 1024;
  spec.seed = 3;
  const Row row = measure([&](bool long_run) {
    workload::OpenArrivalSpec s = spec;
    s.requests_per_client = long_run ? 32 : 8;
    const auto r = workload::run_open_arrival(machine, s);
    EXPECT_EQ(r.completed, r.issued);
    return r.events_dispatched;
  });
  ASSERT_GT(row.events, 100000u);
  EXPECT_LE(row.per_event(), 0.05) << row.news << " allocations over " << row.events;
  // 24,576 more requests add 104 small allocations, none of 4 KB or more:
  // nothing on the request path allocates per request (0.85 per event,
  // about 14 per request, before its scratch moved inline).
  EXPECT_EQ(row.news, 104u) << row.per_event() << " allocations per event";
}

TEST(AllocPerEvent, ExperimentOnThePaperShape) {
  // The paper's 8x8 M_RECORD read of 128 KB requests, without prefetch;
  // an 8 MB vs a 32 MB file. The populate writes are part of the call.
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 128 * 1024;
  w.prefetch = false;
  const Row row = measure([&](bool long_run) {
    workload::WorkloadSpec s = w;
    s.file_size = (long_run ? 32 : 8) * 1024 * 1024;
    const auto r = workload::Experiment{}.run(s);
    EXPECT_EQ(r.total_bytes, s.file_size);
    return r.events_dispatched;
  });
  ASSERT_GT(row.events, 5000u);
  EXPECT_LE(row.per_event(), 0.05) << row.news << " allocations over " << row.events;
  // 24 MB more populate and read add 50 small allocations. When data_rpc
  // staged every multi-piece extent, its images for the populate's 1 MB
  // writes made this 242.
  EXPECT_EQ(row.news, 50u) << row.per_event() << " allocations per event";
}

TEST(AllocPerEvent, CoalescedMultiPieceReadOn16KiBUnits) {
  // 8x8 M_RECORD reads of 1 MiB over 16 KiB units on all eight I/O nodes,
  // coalesced: each read sends every node one RPC whose extent is eight
  // pieces, as are the populate's 1 MB writes. An 8 MB vs a 32 MB file.
  workload::MachineSpec m;
  m.pfs.coalesce_rpcs = true;
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 1024 * 1024;
  w.prefetch = false;
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = 16 * 1024;
  attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  w.attrs = attrs;
  const Row row = measure([&](bool long_run) {
    workload::WorkloadSpec s = w;
    s.file_size = (long_run ? 32 : 8) * 1024 * 1024;
    const auto r = workload::Experiment(m).run(s);
    EXPECT_EQ(r.total_bytes, s.file_size);
    EXPECT_EQ(r.coalesced_rpcs, r.data_rpcs);
    return r.events_dispatched;
  });
  ASSERT_GT(row.events, 1000u);
  EXPECT_LE(row.per_event(), 0.05) << row.news << " allocations over " << row.events;
  // With every coalesced RPC staged, the populate writes and the reads
  // made this 434.
  EXPECT_EQ(row.news, 50u) << row.per_event() << " allocations per event";
}

TEST(AllocPerEvent, ServerBatchedCoalescedRead) {
  // The coalesced row's shape with the servers' batch queue on. Not yet
  // allocation-free: each sweep allocates its vectors and Event in
  // PfsServer::batch_dispatch, the stable_sort buffers of hw::sweep_order
  // and Ufs::read_sorted, std::deque nodes for QueuedIo records,
  // when_all's vector and each spawned process's detached frame. Pinned
  // so that a change to any of them shows.
  workload::MachineSpec m;
  m.pfs.coalesce_rpcs = true;
  m.pfs.server_batch = true;
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 1024 * 1024;
  w.prefetch = false;
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = 16 * 1024;
  attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  w.attrs = attrs;
  const Row row = measure([&](bool long_run) {
    workload::WorkloadSpec s = w;
    s.file_size = (long_run ? 32 : 8) * 1024 * 1024;
    const auto r = workload::Experiment(m).run(s);
    EXPECT_EQ(r.total_bytes, s.file_size);
    EXPECT_EQ(r.coalesced_rpcs, r.data_rpcs);
    EXPECT_GT(r.server_batch_sweeps, 0u);
    return r.events_dispatched;
  });
  ASSERT_GT(row.events, 1000u);
  // 2,954 over 5,118 events (0.58 per event); the row without batching
  // reads 50.
  EXPECT_EQ(row.news, 2954u) << row.per_event() << " allocations per event over " << row.events;
}

TEST(AllocPerEvent, CheckpointWriteOnThePerfbenchShape) {
  // perfbench's checkpoint_write: 8 writers of 256 KiB records on the 8x8
  // machine with write tokens, fsync after each round and a verified
  // read-back; 4 vs 16 rounds.
  workload::WriteWorkloadSpec w;
  w.kind = workload::WriteWorkloadKind::kCheckpoint;
  w.writers = 8;
  w.request_size = 256 * 1024;
  w.conflicting = false;
  w.verify = true;
  w.fsync_each_round = true;
  w.compute_delay = 0.002;
  const Row row = measure([&](bool long_run) {
    workload::WriteWorkloadSpec s = w;
    s.rounds = long_run ? 16 : 4;
    const auto r = workload::run_write_workload(s);
    EXPECT_EQ(r.writes, s.rounds * 8);
    EXPECT_EQ(r.verify_failures, 0u);
    return r.events_dispatched;
  });
  ASSERT_GT(row.events, 1000u);
  EXPECT_LE(row.per_event(), 0.05) << row.news << " allocations over " << row.events;
  // 96 more writes add 260 small allocations, none larger than 4 KiB (the
  // dirty map's nodes among them): a flushed record's vector waits on its
  // client's spare list for the next round's write. When each write took a
  // fresh 256 KiB vector, which its flush freed, this read 356.
  EXPECT_EQ(row.news, 260u) << row.per_event() << " allocations per event";
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
