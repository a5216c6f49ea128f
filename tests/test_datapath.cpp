// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Data-path stage tests: extent-coalesced RPCs (stripe math + epoch-cached
// stripe maps), mesh MTU segmentation, the server batch queue, and the
// block-level sorted sweep (ufs::Ufs::read_sorted). Every stage defaults
// off; the end-to-end cases prove byte-exact delivery with each stage on,
// including under crashes and degraded RAID.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "hw/disk_sched.hpp"
#include "hw/machine.hpp"
#include "hw/mesh.hpp"
#include "pfs/stripe.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"
#include "workload/experiment.hpp"
#include "workload/write_workload.hpp"

namespace ppfs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;

// --- hw::sweep_order --------------------------------------------------------

TEST(SweepOrder, AscendingPassThenReturnStroke) {
  const std::vector<std::uint64_t> keys{50, 10, 60, 20};
  const auto order = hw::sweep_order(keys, /*head=*/15);
  // Ascending from the first key >= 15 (20, 50, 60), then the return
  // stroke descending (10).
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(keys[order[0]], 20u);
  EXPECT_EQ(keys[order[1]], 50u);
  EXPECT_EQ(keys[order[2]], 60u);
  EXPECT_EQ(keys[order[3]], 10u);
}

TEST(SweepOrder, HeadBeyondAllKeysIsOneDescendingStroke) {
  const std::vector<std::uint64_t> keys{5, 30, 12};
  const auto order = hw::sweep_order(keys, /*head=*/100);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(keys[order[0]], 30u);
  EXPECT_EQ(keys[order[1]], 12u);
  EXPECT_EQ(keys[order[2]], 5u);
}

TEST(SweepOrder, EqualKeysKeepInputOrder) {
  const std::vector<std::uint64_t> keys{7, 7, 7};
  const auto order = hw::sweep_order(keys, 0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

// --- pfs::coalesce_by_io ----------------------------------------------------

pfs::StripeAttrs narrow_attrs() {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group.assign(8, 0);  // Table 4: striped 8 ways across ONE node
  return a;
}

pfs::StripeAttrs wide_attrs() {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  return a;
}

/// map() and coalesce_by_io() of one range, with both results kept alive:
/// the coalesced requests point into the extents.
struct Coalesced {
  Coalesced(const pfs::StripeLayout& layout, sim::FileOffset off, sim::ByteCount len) {
    layout.map(off, len, extents);
    pfs::coalesce_by_io(extents, requests);
  }
  pfs::StripeExtents extents;
  pfs::CoalescedRequests requests;
};

/// Collect every file-space piece of a coalesced request set, sorted.
std::vector<pfs::StripePiece> all_pieces(const pfs::CoalescedRequests& reqs) {
  std::vector<pfs::StripePiece> pieces;
  for (const auto& r : reqs) {
    for (const auto& e : r.extents) {
      pieces.insert(pieces.end(), e.pieces.begin(), e.pieces.end());
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const auto& a, const auto& b) { return a.file_offset < b.file_offset; });
  return pieces;
}

/// The union of pieces must tile [off, off+len) exactly once.
::testing::AssertionResult covers_exactly(const pfs::CoalescedRequests& reqs,
                                          sim::FileOffset off, sim::ByteCount len) {
  sim::FileOffset cursor = off;
  for (const auto& p : all_pieces(reqs)) {
    if (p.file_offset != cursor) {
      return ::testing::AssertionFailure()
             << "gap or overlap at " << cursor << " (next piece at " << p.file_offset << ")";
    }
    cursor += p.length;
  }
  if (cursor != off + len) {
    return ::testing::AssertionFailure() << "union ends at " << cursor << " not " << off + len;
  }
  return ::testing::AssertionSuccess();
}

TEST(CoalesceByIo, NarrowLayoutMergesAllSlotsIntoOneRpc) {
  pfs::StripeLayout layout(narrow_attrs());
  const Coalesced c(layout, 0, 512 * 1024);
  const auto& merged = c.requests;
  ASSERT_EQ(merged.size(), 1u);  // 8 per-slot RPCs become one
  EXPECT_EQ(merged[0].io_index, 0);
  EXPECT_EQ(merged[0].extents.size(), 8u);
  EXPECT_TRUE(covers_exactly(merged, 0, 512 * 1024));
}

TEST(CoalesceByIo, WideLayoutKeepsOneRpcPerNode) {
  pfs::StripeLayout layout(wide_attrs());
  const Coalesced c(layout, 0, 512 * 1024);
  const auto& merged = c.requests;
  ASSERT_EQ(merged.size(), 8u);
  for (const auto& r : merged) EXPECT_EQ(r.extents.size(), 1u);
  EXPECT_TRUE(covers_exactly(merged, 0, 512 * 1024));
}

TEST(CoalesceByIo, StripeBoundaryStraddle) {
  pfs::StripeLayout layout(narrow_attrs());
  // Starts mid-stripe-unit and ends mid-unit two slots later.
  const sim::FileOffset off = 32 * 1024;
  const sim::ByteCount len = 128 * 1024;
  const Coalesced c(layout, off, len);
  const auto& merged = c.requests;
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(covers_exactly(merged, off, len));
}

TEST(CoalesceByIo, WrapAroundTheGroupStaysOneExtentPerSlot) {
  // A request longer than one full stripe revisits slot 0: its second
  // stripe unit is CONTIGUOUS in the slot's stripe file, so map() keeps one
  // request per slot — but the slot-0 extent now scatters into two
  // file-space pieces (offsets 0 and 512K).
  pfs::StripeLayout layout(narrow_attrs());
  const sim::ByteCount len = 512 * 1024 + 64 * 1024;  // full stripe + wrap
  const Coalesced c(layout, 0, len);
  const auto& merged = c.requests;
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].extents.size(), 8u);
  EXPECT_EQ(merged[0].extents[0].pieces.size(), 2u);  // slot 0, wrapped
  EXPECT_TRUE(covers_exactly(merged, 0, len));
}

TEST(CoalesceByIo, RepeatedNodeInNonAdjacentSlots) {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group = {0, 1, 0, 1};
  pfs::StripeLayout layout(a);
  const Coalesced c(layout, 0, 256 * 1024);
  const auto& merged = c.requests;
  ASSERT_EQ(merged.size(), 2u);  // one RPC per node, two extents each
  for (const auto& r : merged) EXPECT_EQ(r.extents.size(), 2u);
  EXPECT_TRUE(covers_exactly(merged, 0, 256 * 1024));
}

// --- mesh MTU segmentation --------------------------------------------------

sim::SimTime timed_send(sim::ByteCount mtu, sim::ByteCount bytes) {
  Simulation sim;
  hw::MeshNetwork mesh(sim, hw::MeshConfig{.width = 4, .height = 4, .mtu = mtu});
  sim::SimTime done = 0;
  sim.spawn([](Simulation& s, hw::MeshNetwork& m, sim::ByteCount n,
               sim::SimTime& out) -> Task<void> {
    co_await m.send(0, 15, n);
    out = s.now();
  }(sim, mesh, bytes, done));
  sim.run();
  return done;
}

TEST(MeshMtu, UncontendedSegmentedTimingMatchesLegacy) {
  // Head segment pays the hop latencies, later segments stream behind it:
  // with no route contention the pipelined total equals the circuit total.
  // NEAR, not DOUBLE_EQ: the segmented path sums 32 per-segment delays, so
  // the totals agree only to accumulation rounding.
  const sim::ByteCount bytes = 512 * 1024;
  EXPECT_NEAR(timed_send(0, bytes), timed_send(16 * 1024, bytes), 1e-12);
}

TEST(MeshMtu, MessageWithinOneMtuIsTheCircuit) {
  // A message that fits in one MTU, a zero-byte one included, moves as one
  // segment over its whole route: the circuit's time, bit for bit.
  for (const sim::ByteCount n : {sim::ByteCount{0}, sim::ByteCount{96},
                                 sim::ByteCount{16 * 1024}}) {
    EXPECT_EQ(timed_send(16 * 1024, n), timed_send(0, n)) << n << " bytes";
  }
}

TEST(MeshMtu, SegmentCountersTrackCeilDiv) {
  Simulation sim;
  hw::MeshNetwork mesh(sim, hw::MeshConfig{.width = 4, .height = 4, .mtu = 16 * 1024});
  run_task(sim, [](hw::MeshNetwork& m) -> Task<void> {
    co_await m.send(0, 15, 40 * 1024);  // 3 segments of <= 16K
    co_await m.send(0, 15, 8 * 1024);   // fits in one MTU: not segmented
  }(mesh));
  EXPECT_EQ(mesh.segmented_messages(), 1u);
  EXPECT_EQ(mesh.segments_sent(), 3u);
}

// --- ufs::Ufs::read_sorted --------------------------------------------------

struct SortedFixture {
  Simulation sim;
  ufs::NullBlockDevice dev{sim, 1ull << 30};
  ufs::ContentArena arena;
  ufs::ContentStore content{arena, 64 * 1024};
  ufs::Ufs fs{sim, "ufs0", dev, content, nullptr, ufs::UfsParams{}};
};

TEST(ReadSorted, CrossFileContiguousRunIsOneDeviceTransfer) {
  SortedFixture f;
  constexpr sim::ByteCount kBlk = 64 * 1024;
  // Interleave allocation across two files: a0 b0 a1 b1 -> phys 0..3.
  const auto a = f.fs.create("a");
  const auto b = f.fs.create("b");
  run_task(f.sim, [](SortedFixture& fx, ufs::InodeNum ia, ufs::InodeNum ib) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await fx.fs.write(ia, i * kBlk, make_pattern(1, i * kBlk, kBlk), true);
      co_await fx.fs.write(ib, i * kBlk, make_pattern(2, i * kBlk, kBlk), true);
    }
  }(f, a, b));

  const auto runs_before = f.fs.stats().disk_runs;
  std::vector<std::byte> oa(2 * kBlk), ob(2 * kBlk);
  std::vector<ufs::Ufs::BatchRead> batch{
      {a, 0, 2 * kBlk, oa, 0},
      {b, 0, 2 * kBlk, ob, 0},
  };
  run_task(f.sim, [](SortedFixture& fx, std::span<ufs::Ufs::BatchRead> items) -> Task<void> {
    co_await fx.fs.read_sorted(items);
  }(f, batch));

  // phys {0,2} + {1,3} flatten and sort to 0,1,2,3: ONE streaming transfer.
  EXPECT_EQ(f.fs.stats().disk_runs, runs_before + 1);
  EXPECT_EQ(batch[0].got, 2 * kBlk);
  EXPECT_EQ(batch[1].got, 2 * kBlk);
  EXPECT_TRUE(check_pattern(oa, 1, 0));
  EXPECT_TRUE(check_pattern(ob, 2, 0));
}

TEST(ReadSorted, EligibilityRules) {
  SortedFixture f;
  constexpr sim::ByteCount kBlk = 64 * 1024;
  const auto a = f.fs.create("a");
  run_task(f.sim, [](SortedFixture& fx, ufs::InodeNum ia) -> Task<void> {
    co_await fx.fs.write(ia, 0, make_pattern(1, 0, kBlk + 100), true);
  }(f, a));

  EXPECT_TRUE(f.fs.fastpath_read_eligible(a, 0, kBlk));
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 0, kBlk / 2));     // unaligned length
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 100, kBlk));       // unaligned offset
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 0, 2 * kBlk));     // straddles EOF
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 4 * kBlk, kBlk));  // beyond EOF
}

// --- end-to-end: the stages deliver byte-exact data -------------------------

workload::WorkloadSpec datapath_spec(const pfs::StripeAttrs& attrs) {
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 512 * 1024;
  w.file_size = 8ull * 512 * 1024 * 2;  // 8 nodes x 2 rounds
  w.prefetch = true;
  w.attrs = attrs;
  w.verify = true;
  return w;
}

workload::MachineSpec stages_on(sim::ByteCount mtu, bool coalesce, bool batch) {
  workload::MachineSpec m;
  m.mesh_mtu = mtu;
  m.pfs.coalesce_rpcs = coalesce;
  m.pfs.server_batch = batch;
  return m;
}

TEST(DatapathE2E, AllStagesVerifyCleanOnNarrowLayout) {
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(datapath_spec(narrow_attrs()));
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  EXPECT_GT(r.coalesced_rpcs, 0u);
  EXPECT_GT(r.coalesced_extents, r.coalesced_rpcs);  // narrow: >1 extent/RPC
  EXPECT_GT(r.server_batch_sweeps, 0u);
  EXPECT_GE(r.server_batched_extents, r.server_batch_sweeps);
  EXPECT_GT(r.mesh_segments, 0u);
  EXPECT_GT(r.stripe_map_refreshes, 0u);
}

TEST(DatapathE2E, AllStagesVerifyCleanOnWideLayout) {
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(datapath_spec(wide_attrs()));
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.coalesced_rpcs, 0u);
  EXPECT_GT(r.server_batch_sweeps, 0u);
}

TEST(DatapathE2E, EachStageAloneVerifiesClean) {
  const workload::MachineSpec specs[] = {
      stages_on(4 * 1024, false, false),
      stages_on(0, true, false),
      stages_on(0, false, true),
  };
  for (const auto& m : specs) {
    workload::Experiment exp(m);
    const auto r = exp.run(datapath_spec(narrow_attrs()));
    EXPECT_EQ(r.verify_failures, 0u);
    EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  }
}

TEST(DatapathE2E, CoalescedMatchesLegacyByteForByte) {
  // Same workload, coalescing on vs off: identical delivered bytes and a
  // clean verify both ways; the coalesced run collapses control traffic.
  const auto w = datapath_spec(narrow_attrs());
  const auto legacy = workload::Experiment(stages_on(0, false, false)).run(w);
  const auto merged = workload::Experiment(stages_on(0, true, false)).run(w);
  EXPECT_EQ(legacy.verify_failures, 0u);
  EXPECT_EQ(merged.verify_failures, 0u);
  EXPECT_EQ(legacy.total_bytes, merged.total_bytes);
  EXPECT_LT(merged.data_rpcs, legacy.data_rpcs);
}

TEST(DatapathE2E, StripeMapEpochInvalidatesAcrossCrash) {
  auto w = datapath_spec(narrow_attrs());
  const auto healthy = workload::Experiment(stages_on(0, true, false)).run(w);
  w.faults = fault::parse_plan("crash:io=0,at=0.05,outage=0.1");
  const auto crashed = workload::Experiment(stages_on(0, true, false)).run(w);
  EXPECT_EQ(crashed.verify_failures, 0u);
  EXPECT_EQ(crashed.total_bytes, healthy.total_bytes);
  // The crash and the restore each bump the topology epoch; clients must
  // reload their cached stripe maps instead of trusting stale ones.
  EXPECT_GT(crashed.stripe_map_refreshes, healthy.stripe_map_refreshes);
}

TEST(DatapathE2E, DegradedRaidReconstructsThroughCoalescedBatches) {
  auto w = datapath_spec(narrow_attrs());
  w.faults = fault::parse_plan("diskfail:io=all,member=1,at=0");
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(w);
  // Every sorted-sweep transfer runs against the degraded array: data still
  // reconstructs byte-exact from the surviving members + parity.
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  EXPECT_GT(r.server_batch_sweeps, 0u);
}

TEST(DatapathE2E, DefaultSpecKeepsEveryStageOff) {
  const workload::MachineSpec defaults;
  EXPECT_EQ(defaults.mesh_mtu, 0u);
  EXPECT_FALSE(defaults.pfs.coalesce_rpcs);
  EXPECT_FALSE(defaults.pfs.server_batch);
}

TEST(DatapathE2E, DefaultMachineDispatchesTheLegacyEventStream) {
  // The stages stay opt-in: a default machine and one with every stage
  // forced off run the same events, on the data-path bench's 8x8 shape.
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 512 * 1024;
  w.file_size = 8ull * 512 * 1024 * 2;  // 8 nodes x 2 rounds
  w.prefetch = true;
  const auto defaults = workload::Experiment(workload::MachineSpec{}).run(w);
  const auto legacy = workload::Experiment(stages_on(0, false, false)).run(w);
  EXPECT_EQ(defaults.digest, legacy.digest);
  EXPECT_EQ(defaults.events_dispatched, legacy.events_dispatched);
}

// --- golden digests on every data-RPC path ----------------------------------
//
// Each (stage, shape) pair pins the whole event stream: digest and event
// count of populate + measured phase. A change to the client's RPC
// envelope, its fan-out or the server's admission that adds, drops or
// reorders one event on a retry, coalesced, batched or write path shows
// up here even when every byte still verifies: a refactor of the data path
// leaves every value unchanged, and a change that moves one changes the
// simulated machine.

enum class RpcStage { kLegacy, kCoalesce, kServerBatch, kBoth };
enum class RpcShape { kMultiPieceRead, kCrashRetryRead, kGiveUpRead, kCheckpointWrite, kNarrowRead };

const char* stage_name(RpcStage s) {
  switch (s) {
    case RpcStage::kLegacy: return "Legacy";
    case RpcStage::kCoalesce: return "Coalesce";
    case RpcStage::kServerBatch: return "ServerBatch";
    case RpcStage::kBoth: return "CoalesceServerBatch";
  }
  return "?";
}

const char* shape_name(RpcShape s) {
  switch (s) {
    case RpcShape::kMultiPieceRead: return "MultiPieceRead";
    case RpcShape::kCrashRetryRead: return "CrashRetryRead";
    case RpcShape::kGiveUpRead: return "GiveUpRead";
    case RpcShape::kCheckpointWrite: return "CheckpointWrite";
    case RpcShape::kNarrowRead: return "NarrowPrefetchRead";
  }
  return "?";
}

struct RpcGolden {
  RpcShape shape;
  RpcStage stage;
  std::uint64_t digest;
  std::uint64_t events;
};

void PrintTo(const RpcGolden& g, std::ostream* os) {
  *os << shape_name(g.shape) << '/' << stage_name(g.stage);
}

workload::MachineSpec stage_spec(RpcStage s) {
  return stages_on(0, s == RpcStage::kCoalesce || s == RpcStage::kBoth,
                   s == RpcStage::kServerBatch || s == RpcStage::kBoth);
}

/// M_RECORD 256 KB reads of a 4 MB file striped in 16 KB units over two
/// I/O nodes: every request is two eight-piece (staged) extents, and the
/// populate's 1 MB chunks are staged writes.
workload::WorkloadSpec multi_piece_read() {
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 256 * 1024;
  w.file_size = 4 * 1024 * 1024;
  pfs::StripeAttrs a;
  a.stripe_unit = 16 * 1024;
  a.stripe_group = {0, 1};
  w.attrs = a;
  w.verify = true;
  return w;
}

workload::ExperimentResult run_rpc_shape(RpcShape shape, RpcStage stage) {
  const workload::MachineSpec m = stage_spec(stage);
  switch (shape) {
    case RpcShape::kMultiPieceRead:
      return workload::Experiment(m).run(multi_piece_read());
    case RpcShape::kCrashRetryRead: {
      auto w = multi_piece_read();
      w.faults = fault::parse_plan("crash:io=1,at=0.01,outage=0.05");
      return workload::Experiment(m).run(w);
    }
    case RpcShape::kGiveUpRead: {
      // The outage outlasts the retry budget: reads give up with a typed
      // error, and the rest of the run goes on.
      auto w = multi_piece_read();
      w.faults = fault::parse_plan("crash:io=1,at=0.01,outage=30");
      return workload::Experiment(m).run(w);
    }
    case RpcShape::kCheckpointWrite: {
      workload::WriteWorkloadSpec w;
      w.kind = workload::WriteWorkloadKind::kCheckpoint;
      w.machine = m;
      w.writers = 4;
      w.rounds = 6;
      w.request_size = 64 * 1024;
      w.compute_delay = 0.002;
      w.faults = fault::parse_plan("crash:io=1,at=0.01,outage=0.05");
      return workload::run_write_workload(w);
    }
    case RpcShape::kNarrowRead: {
      // Table 4's "eight ways across one node": every coalesced RPC
      // carries several extents, and prefetches ride the ART path.
      workload::WorkloadSpec w;
      w.mode = pfs::IoMode::kRecord;
      w.request_size = 256 * 1024;
      w.file_size = 4 * 1024 * 1024;
      w.attrs = narrow_attrs();
      w.prefetch = true;
      w.compute_delay = 0.005;
      w.verify = true;
      return workload::Experiment(m).run(w);
    }
  }
  return {};
}

class RpcPathGolden : public ::testing::TestWithParam<RpcGolden> {};

TEST_P(RpcPathGolden, DigestAndEventCountPinned) {
  const RpcGolden& g = GetParam();
  const auto r = run_rpc_shape(g.shape, g.stage);
  EXPECT_EQ(r.digest, g.digest) << std::hex << "got 0x" << r.digest;
  EXPECT_EQ(r.events_dispatched, g.events) << std::dec << "got " << r.events_dispatched;
  if (g.shape == RpcShape::kCrashRetryRead || g.shape == RpcShape::kCheckpointWrite) {
    // The crash lands mid-run and every failed attempt heals by retry.
    EXPECT_GT(r.faults.rpc_retries, 0u);
    EXPECT_EQ(r.faults.terminal_errors, 0u);
    EXPECT_EQ(r.verify_failures, 0u);
  }
  if (g.shape == RpcShape::kGiveUpRead) {
    EXPECT_GT(r.faults.terminal_errors, 0u);
  }
  if (g.shape == RpcShape::kMultiPieceRead || g.shape == RpcShape::kNarrowRead) {
    EXPECT_EQ(r.verify_failures, 0u);
  }
}

constexpr RpcGolden kRpcGoldens[] = {
    {RpcShape::kMultiPieceRead, RpcStage::kLegacy, 0x766a5b2b32a660b3ull, 763},
    {RpcShape::kMultiPieceRead, RpcStage::kCoalesce, 0xb0687ad48f2169cbull, 841},
    {RpcShape::kMultiPieceRead, RpcStage::kServerBatch, 0xf880b9ff9daa4513ull, 560},
    {RpcShape::kMultiPieceRead, RpcStage::kBoth, 0xd17fe2b9ad7eef46ull, 598},
    {RpcShape::kCrashRetryRead, RpcStage::kLegacy, 0x2b356dbd4d952aa6ull, 835},
    {RpcShape::kCrashRetryRead, RpcStage::kCoalesce, 0xa5aa48a157319bb4ull, 957},
    {RpcShape::kCrashRetryRead, RpcStage::kServerBatch, 0x848fac732ec472d5ull, 671},
    {RpcShape::kCrashRetryRead, RpcStage::kBoth, 0xd094f16b041e008aull, 756},
    {RpcShape::kGiveUpRead, RpcStage::kLegacy, 0x06f3160024307017ull, 689},
    {RpcShape::kGiveUpRead, RpcStage::kCoalesce, 0x80b86c7617921406ull, 785},
    {RpcShape::kGiveUpRead, RpcStage::kServerBatch, 0x735f2d4b90480984ull, 538},
    {RpcShape::kGiveUpRead, RpcStage::kBoth, 0x1d8554d184b0c4b5ull, 602},
    {RpcShape::kCheckpointWrite, RpcStage::kLegacy, 0x999c898b0c8c5853ull, 1267},
    {RpcShape::kCheckpointWrite, RpcStage::kCoalesce, 0x3078fd0771adecfcull, 1357},
    {RpcShape::kCheckpointWrite, RpcStage::kServerBatch, 0x196c14e75375e550ull, 1414},
    {RpcShape::kCheckpointWrite, RpcStage::kBoth, 0x921e769ff836081full, 1455},
    {RpcShape::kNarrowRead, RpcStage::kLegacy, 0x777a04ace6c37125ull, 1855},
    {RpcShape::kNarrowRead, RpcStage::kCoalesce, 0xd5317af659efd72eull, 1420},
    {RpcShape::kNarrowRead, RpcStage::kServerBatch, 0x3a3349e987878cc9ull, 1365},
    {RpcShape::kNarrowRead, RpcStage::kBoth, 0x788319ce0ac124deull, 873},
};

INSTANTIATE_TEST_SUITE_P(Paths, RpcPathGolden, ::testing::ValuesIn(kRpcGoldens),
                         [](const ::testing::TestParamInfo<RpcGolden>& p) {
                           return std::string(shape_name(p.param.shape)) + "_" +
                                  stage_name(p.param.stage);
                         });

}  // namespace
}  // namespace ppfs
