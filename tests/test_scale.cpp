// ScaleSim: the production-scale machinery's correctness contract.
//
// Three layers under test: the ShardArena per-node state container (fixed
// capacity, address pinning, construction-order indexing), the
// StreamingQuantiles fixed-footprint latency sketch, and the open-arrival
// workload. The load-bearing properties are determinism (same spec => same
// digest) and bounded footprint (the kernel's bytes/event stays under a
// fixed ceiling however long the run is).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "hw/machine.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "workload/open_arrival.hpp"

namespace {

using ppfs::sim::ShardArena;
using ppfs::sim::StreamingQuantiles;
using ppfs::workload::MachineSpec;
using ppfs::workload::OpenArrivalSpec;
using ppfs::workload::run_open_arrival;

// --- ShardArena ---

struct Pinned {
  explicit Pinned(int v) : value(v), self(this) {}
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  int value;
  Pinned* self;  // would dangle if the arena ever relocated elements
};

TEST(ShardArena, ConstructionOrderAndAddressPinning) {
  ShardArena<Pinned> arena;
  arena.reserve(64);
  std::vector<Pinned*> addrs;
  for (int i = 0; i < 64; ++i) addrs.push_back(&arena.emplace_back(i));
  ASSERT_EQ(arena.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(arena[static_cast<std::size_t>(i)].value, i);
    EXPECT_EQ(&arena[static_cast<std::size_t>(i)], addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(arena[static_cast<std::size_t>(i)].self, addrs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(arena.memory_bytes(), 64 * sizeof(Pinned));
}

TEST(ShardArena, OverflowAndDoubleReserveThrow) {
  ShardArena<int> arena;
  arena.reserve(2);
  arena.emplace_back(1);
  arena.emplace_back(2);
  EXPECT_THROW(arena.emplace_back(3), std::length_error);
  EXPECT_THROW(arena.reserve(4), std::logic_error);
  EXPECT_THROW(arena.at(2), std::out_of_range);
}

// --- StreamingQuantiles ---

TEST(StreamingQuantiles, TracksCountSumMinMax) {
  StreamingQuantiles q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.percentile(50), 0.0);
  for (int i = 1; i <= 1000; ++i) q.add(i * 1e-6);  // 1us..1ms
  EXPECT_EQ(q.count(), 1000u);
  EXPECT_DOUBLE_EQ(q.min(), 1e-6);
  EXPECT_DOUBLE_EQ(q.max(), 1e-3);
  EXPECT_NEAR(q.mean(), 500.5e-6, 1e-9);
  // Log2-bin sketch: percentile is within one bin (2x) of the true value.
  const double p50 = q.median();
  EXPECT_GE(p50, 250e-6);
  EXPECT_LE(p50, 1e-3);
  EXPECT_LE(q.percentile(10), p50);
  EXPECT_LE(p50, q.percentile(99));
}

TEST(StreamingQuantiles, MergeMatchesCombinedStream) {
  StreamingQuantiles a, b, both;
  for (int i = 1; i <= 100; ++i) {
    a.add(i * 1e-5);
    both.add(i * 1e-5);
  }
  for (int i = 1; i <= 50; ++i) {
    b.add(i * 1e-3);
    both.add(i * 1e-3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.percentile(90), both.percentile(90));
}

TEST(StreamingQuantiles, EmptySketchAnswersZeroEverywhere) {
  StreamingQuantiles q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.min(), 0.0);
  EXPECT_EQ(q.max(), 0.0);
  EXPECT_EQ(q.mean(), 0.0);
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    const double v = q.percentile(p);
    EXPECT_TRUE(std::isfinite(v)) << "p" << p;
    EXPECT_EQ(v, 0.0) << "p" << p;
  }
}

TEST(StreamingQuantiles, NonFiniteSamplesAreDroppedNotPoisonous) {
  // Regression: add(NaN) used to bump n_ and poison sum_ while min_/max_
  // stayed at their infinity sentinels (NaN loses every min/max compare),
  // so min()/max() reported infinities and percentile() clamped against an
  // inverted range.
  StreamingQuantiles q;
  q.add(std::numeric_limits<double>::quiet_NaN());
  q.add(std::numeric_limits<double>::infinity());
  q.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.percentile(50), 0.0);
  EXPECT_EQ(q.min(), 0.0);
  q.add(2e-6);
  q.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(q.count(), 1u);
  EXPECT_DOUBLE_EQ(q.min(), 2e-6);
  EXPECT_DOUBLE_EQ(q.max(), 2e-6);
  EXPECT_DOUBLE_EQ(q.mean(), 2e-6);
  EXPECT_TRUE(std::isfinite(q.percentile(99)));
  EXPECT_DOUBLE_EQ(q.percentile(99), 2e-6);  // clamped into [min, max]
}

TEST(StreamingQuantiles, MergeWithEmptyAndDisjointRanges) {
  StreamingQuantiles empty, low, high;
  for (int i = 1; i <= 10; ++i) low.add(i * 1e-6);
  for (int i = 1; i <= 10; ++i) high.add(i * 1e-2);
  // empty <- nonempty adopts the other's range exactly.
  empty.merge(low);
  EXPECT_EQ(empty.count(), 10u);
  EXPECT_DOUBLE_EQ(empty.min(), low.min());
  EXPECT_DOUBLE_EQ(empty.max(), low.max());
  // nonempty <- empty is a no-op, not a range reset.
  StreamingQuantiles none;
  low.merge(none);
  EXPECT_EQ(low.count(), 10u);
  EXPECT_DOUBLE_EQ(low.min(), 1e-6);
  // Disjoint ranges: percentiles of the merge stay finite and inside the
  // combined observed range.
  low.merge(high);
  EXPECT_EQ(low.count(), 20u);
  for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    const double v = low.percentile(p);
    EXPECT_TRUE(std::isfinite(v)) << "p" << p;
    EXPECT_GE(v, 1e-6);
    EXPECT_LE(v, 1e-1);
  }
}

// --- open-arrival workload ---

MachineSpec smoke_machine() {
  MachineSpec m;
  m.ncompute = 64;
  m.nio = 16;
  return m;
}

OpenArrivalSpec smoke_spec() {
  OpenArrivalSpec s;
  s.tenants = 4;
  s.requests_per_client = 8;
  s.request_size = 64 * 1024;
  s.tenant_file_size = 1024 * 1024;
  s.mean_interarrival = 0.002;
  s.seed = 7;
  return s;
}

TEST(ScaleSmoke, OpenArrivalCompletesWithBoundedFootprint) {
  const auto r = run_open_arrival(smoke_machine(), smoke_spec());
  EXPECT_EQ(r.ncompute, 64);
  EXPECT_EQ(r.nio, 16);
  // Every arrival was issued and (no faults armed) completed.
  EXPECT_EQ(r.issued, 64u * 8u);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.total_bytes, r.completed * smoke_spec().request_size);
  EXPECT_GT(r.sim_elapsed, 0.0);
  EXPECT_EQ(r.latencies.count(), r.issued);
  EXPECT_GT(r.latencies.max(), 0.0);
  // Footprint: the counters exist and are sane for a 64x16 run. The
  // bytes/event ceiling is the memory-lean contract — kernel state
  // amortized over the event stream, not proportional to requests.
  EXPECT_GT(r.events_dispatched, 0u);
  EXPECT_GT(r.peak_pending_events, 0u);
  EXPECT_LT(r.peak_pending_events, 200000u);
  EXPECT_GT(r.bytes_per_event, 0.0);
  EXPECT_LT(r.bytes_per_event, 4096.0);
  EXPECT_GT(r.machine_state_bytes, 0u);
}

TEST(ScaleSmoke, DigestStableAcrossRuns) {
  const auto a = run_open_arrival(smoke_machine(), smoke_spec());
  const auto b = run_open_arrival(smoke_machine(), smoke_spec());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.issued, b.issued);
  // A different seed must change the event stream.
  auto s = smoke_spec();
  s.seed = 8;
  const auto c = run_open_arrival(smoke_machine(), s);
  EXPECT_NE(a.digest, c.digest);
}

TEST(ScaleSmoke, FrameArenaBytesAreTheRunsOwnPeak) {
  // frame_arena_bytes (and so bytes_per_event, which bench_scale gates) is
  // the run's own high-water of live arena blocks. It once read the
  // thread's cached blocks, which a larger run earlier on the same thread
  // inflated. A fresh thread gives the row a fresh arena for its first run.
  MachineSpec small;
  small.ncompute = 8;
  small.nio = 8;
  MachineSpec large;  // tenant_open's shape, with a few requests
  large.ncompute = 256;
  large.nio = 64;
  OpenArrivalSpec large_spec;
  large_spec.tenants = 16;
  large_spec.requests_per_client = 2;
  large_spec.tenant_file_size = 2 * 1024 * 1024;
  large_spec.mean_interarrival = 0.4;
  ppfs::workload::OpenArrivalResult alone, after;
  std::thread worker([&] {
    alone = run_open_arrival(small, smoke_spec());
    (void)run_open_arrival(large, large_spec);
    after = run_open_arrival(small, smoke_spec());
  });
  worker.join();
  EXPECT_GT(alone.frame_arena_bytes, 0u);
  EXPECT_EQ(after.frame_arena_bytes, alone.frame_arena_bytes);
  EXPECT_EQ(after.bytes_per_event, alone.bytes_per_event);
  EXPECT_EQ(after.digest, alone.digest);
}

TEST(ScaleSmoke, ScaledMeshIsNearSquare) {
  const auto cfg = ppfs::hw::MachineConfig::paragon_scaled(240, 16);
  EXPECT_EQ(cfg.mesh.width, 16);
  EXPECT_EQ(cfg.mesh.height, 16);
  EXPECT_EQ(static_cast<int>(cfg.io_nodes.size()), 16);
  // paragon() stays digest-frozen at width 4.
  const auto legacy = ppfs::hw::MachineConfig::paragon(8, 8);
  EXPECT_EQ(legacy.mesh.width, 4);
}

}  // namespace
