// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Tests for the library extensions beyond the paper's prototype:
// elevator disk scheduling, server-side UFS readahead, mid-file
// set_iomode, Fast Path toggling, asynchronous writes, and the run-level
// prefetch statistics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/disk.hpp"
#include "hw/disk_sched.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"
#include "workload/experiment.hpp"

namespace ppfs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

// --- ElevatorQueue ---

TEST(ElevatorQueue, ServesInSweepOrder) {
  hw::ElevatorQueue q;
  q.push(0, 500);
  q.push(1, 100);
  q.push(2, 900);
  q.push(3, 300);
  // Head at 200, sweeping up: 300, 500, 900, then reverse to 100.
  EXPECT_EQ(q.pop_next(200), 3u);
  EXPECT_EQ(q.pop_next(300), 0u);
  EXPECT_EQ(q.pop_next(500), 2u);
  EXPECT_EQ(q.pop_next(900), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(ElevatorQueue, ReversesWhenNothingAhead) {
  hw::ElevatorQueue q;
  q.push(0, 10);
  q.push(1, 20);
  // Head far above everything: sweep reverses and picks the nearest below.
  EXPECT_EQ(q.pop_next(1000), 1u);
  EXPECT_EQ(q.pop_next(20), 0u);
}

TEST(ElevatorQueue, EqualCylinderServedImmediately) {
  hw::ElevatorQueue q;
  q.push(7, 42);
  EXPECT_EQ(q.pop_next(42), 7u);
}

TEST(DiskElevator, ReordersScatteredRequestsByCylinder) {
  hw::DiskParams p = hw::DiskParams::paragon_era();
  p.scheduler = hw::DiskSched::kElevator;
  Simulation sim;
  hw::Disk d(sim, "d0", p);
  const std::uint64_t spc =
      static_cast<std::uint64_t>(p.sectors_per_track) * p.heads;  // sectors per cylinder

  std::vector<int> completion_order;
  // Submit far, near, middle (in that arrival order) while the disk is
  // busy with a request at cylinder 0.
  sim.spawn([](hw::Disk& disk, std::vector<int>& order) -> Task<void> {
    co_await disk.transfer(0, 32 * 1024, false);
    order.push_back(0);
  }(d, completion_order));
  auto submit = [&](int id, std::uint64_t cyl) {
    sim.spawn([](Simulation& s, hw::Disk& disk, std::vector<int>& order, int tag,
                 std::uint64_t lba) -> Task<void> {
      co_await s.delay(0.0001);  // arrive while request 0 is in service
      co_await disk.transfer(lba, 32 * 1024, false);
      order.push_back(tag);
    }(sim, d, completion_order, id, cyl));
  };
  submit(3, 1800 * spc);
  submit(1, 100 * spc);
  submit(2, 900 * spc);
  sim.run();
  // Elevator sweeps upward from cylinder ~0: 100, 900, 1800.
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DiskElevator, BeatsFifoOnScatteredLoad) {
  auto run_policy = [&](hw::DiskSched sched) {
    hw::DiskParams p = hw::DiskParams::paragon_era();
    p.scheduler = sched;
    Simulation sim;
    hw::Disk d(sim, "d0", p);
    const std::uint64_t spc = static_cast<std::uint64_t>(p.sectors_per_track) * p.heads;
    // Interleave two distant regions, FIFO-hostile.
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t cyl = (i % 2 == 0) ? 50 + i : 1800 + i;
      sim.spawn([](hw::Disk& disk, std::uint64_t lba) -> Task<void> {
        co_await disk.transfer(lba, 16 * 1024, false);
      }(d, cyl * spc));
    }
    sim.run();
    return sim.now();
  };
  EXPECT_LT(run_policy(hw::DiskSched::kElevator), run_policy(hw::DiskSched::kFifo));
}

TEST(DiskElevator, DataStillCorrectUnderReordering) {
  // Full-stack check: a PFS on elevator disks returns the same bytes.
  Simulation sim;
  auto cfg = hw::MachineConfig::paragon(2, 2);
  cfg.raid.disk.scheduler = hw::DiskSched::kElevator;
  hw::Machine machine(sim, cfg);
  pfs::PfsFileSystem fs(machine, pfs::PfsParams{});
  fs.create("f", fs.default_attrs());
  pfs::PfsClient client(fs, 0, 0, 1);
  auto data = make_pattern(4, 0, 512 * 1024);
  std::vector<std::byte> back(512 * 1024);
  run_task(sim, [](pfs::PfsClient& c, std::span<const std::byte> in,
                   std::span<std::byte> out) -> Task<void> {
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    co_await c.write(fd, in);
    co_await c.seek(fd, 0);
    co_await c.read(fd, out);
    c.close(fd);
  }(client, data, back));
  EXPECT_TRUE(check_pattern(back, 4, 0));
}

// --- UFS server-side readahead ---

TEST(UfsReadahead, WarmsCacheForSequentialBufferedReads) {
  Simulation sim;
  ufs::NullBlockDevice dev(sim, 1ull << 30);
  ufs::ContentArena arena;
  ufs::ContentStore content(arena, 64 * 1024);
  ufs::UfsParams p;
  p.readahead_blocks = 2;
  ufs::Ufs fs(sim, "ufs0", dev, content, nullptr, p);
  auto ino = fs.create("a");
  auto data = make_pattern(6, 0, 8 * p.block_bytes);
  run_task(sim, [](ufs::Ufs& f, ufs::InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await f.write(i, 0, in, true);
    std::vector<std::byte> buf(f.params().block_bytes);
    // Buffered sequential scan: after block k is read, k+1/k+2 prefill.
    for (int b = 0; b < 8; ++b) {
      co_await f.read(i, static_cast<sim::FileOffset>(b) * f.params().block_bytes,
                      buf.size(), buf, /*fastpath=*/false);
    }
  }(fs, ino, data));
  EXPECT_GT(fs.stats().readaheads_issued, 0u);
  // Blocks 1..7 were readahead targets; demand reads for them hit (or join
  // an in-flight fill) instead of missing cold.
  EXPECT_GT(fs.cache().hits() + fs.cache().fill_waits(), 0u);
}

TEST(UfsReadahead, FastPathDoesNotTriggerReadahead) {
  Simulation sim;
  ufs::NullBlockDevice dev(sim, 1ull << 30);
  ufs::ContentArena arena;
  ufs::ContentStore content(arena, 64 * 1024);
  ufs::UfsParams p;
  p.readahead_blocks = 2;
  ufs::Ufs fs(sim, "ufs0", dev, content, nullptr, p);
  auto ino = fs.create("a");
  auto data = make_pattern(6, 0, 4 * p.block_bytes);
  run_task(sim, [](ufs::Ufs& f, ufs::InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await f.write(i, 0, in, true);
    std::vector<std::byte> buf(in.size());
    co_await f.read(i, 0, in.size(), buf, /*fastpath=*/true);
  }(fs, ino, data));
  EXPECT_EQ(fs.stats().readaheads_issued, 0u);
}

TEST(UfsReadahead, StopsAtEof) {
  Simulation sim;
  ufs::NullBlockDevice dev(sim, 1ull << 30);
  ufs::ContentArena arena;
  ufs::ContentStore content(arena, 64 * 1024);
  ufs::UfsParams p;
  p.readahead_blocks = 8;
  ufs::Ufs fs(sim, "ufs0", dev, content, nullptr, p);
  auto ino = fs.create("a");
  auto data = make_pattern(6, 0, 2 * p.block_bytes);
  run_task(sim, [](ufs::Ufs& f, ufs::InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await f.write(i, 0, in, true);
    std::vector<std::byte> buf(f.params().block_bytes);
    co_await f.read(i, 0, buf.size(), buf, false);
  }(fs, ino, data));
  // Only block 1 exists beyond block 0.
  EXPECT_EQ(fs.stats().readaheads_issued, 1u);
}

// --- PFS client extensions ---

struct Bed {
  explicit Bed(int nc = 4, int nio = 4)
      : machine(sim, hw::MachineConfig::paragon(nc, nio)), fs(machine, pfs::PfsParams{}) {
    for (int r = 0; r < nc; ++r) {
      clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, nc));
    }
  }
  void populate(sim::ByteCount size) {
    fs.create("f", fs.default_attrs());
    run_task(sim, [](Bed& b, sim::ByteCount sz) -> Task<void> {
      const int fd = co_await b.clients[0]->open("f", pfs::IoMode::kAsync);
      auto data = make_pattern(1, 0, sz);
      co_await b.clients[0]->write(fd, data);
      b.clients[0]->close(fd);
    }(*this, size));
  }
  Simulation sim;
  hw::Machine machine;
  pfs::PfsFileSystem fs;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
};

TEST(SetIoMode, SwitchesCoordinationMidFile) {
  Bed b;
  b.populate(1024 * 1024);
  run_task(b.sim, [](Bed& bed) -> Task<void> {
    auto& c = *bed.clients[2];  // rank 2 of 4
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await c.read(fd, buf);  // sequential: bytes [0, 64K)
    EXPECT_TRUE(check_pattern(buf, 1, 0));
    co_await c.set_iomode(fd, pfs::IoMode::kRecord);
    EXPECT_EQ(c.mode_of(fd), pfs::IoMode::kRecord);
    // Record mode from the current pointer: rank 2's record of this round.
    co_await c.read(fd, buf);
    EXPECT_TRUE(check_pattern(buf, 1, 64 * 1024 + 2 * 64 * 1024));
    c.close(fd);
  }(b));
}

TEST(FastPathToggle, BufferedReadsPopulateServerCache) {
  Bed b;
  b.populate(512 * 1024);
  run_task(b.sim, [](Bed& bed) -> Task<void> {
    auto& c = *bed.clients[0];
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    EXPECT_TRUE(c.fastpath(fd));
    c.set_fastpath(fd, false);
    EXPECT_FALSE(c.fastpath(fd));
    std::vector<std::byte> buf(256 * 1024);
    co_await c.read(fd, buf);
    EXPECT_TRUE(check_pattern(buf, 1, 0));
    c.close(fd);
  }(b));
  std::size_t resident = 0;
  for (int io = 0; io < 4; ++io) resident += b.fs.server(io).ufs().cache().resident_blocks();
  EXPECT_GT(resident, 0u);
}

TEST(AsyncWrite, IwriteIowaitRoundTrip) {
  Bed b(1, 4);
  b.fs.create("f", b.fs.default_attrs());
  run_task(b.sim, [](Bed& bed) -> Task<void> {
    auto& c = *bed.clients[0];
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    auto d1 = make_pattern(9, 0, 128 * 1024);
    auto d2 = make_pattern(9, 128 * 1024, 128 * 1024);
    auto h1 = co_await c.iwrite(fd, d1);
    auto h2 = co_await c.iwrite(fd, d2);
    EXPECT_EQ(c.tell(fd), 256u * 1024);  // pointer advanced at issue
    EXPECT_EQ(co_await c.iowait(h1), 128u * 1024);
    EXPECT_EQ(co_await c.iowait(h2), 128u * 1024);
    std::vector<std::byte> back(256 * 1024);
    co_await c.seek(fd, 0);
    co_await c.read(fd, back);
    EXPECT_TRUE(check_pattern(back, 9, 0));
    c.close(fd);
  }(b));
}

TEST(AsyncWrite, RejectsCoordinatedModes) {
  Bed b;
  b.populate(256 * 1024);
  run_task(b.sim, [](Bed& bed) -> Task<void> {
    auto& c = *bed.clients[0];
    const int fd = co_await c.open("f", pfs::IoMode::kSync);
    std::vector<std::byte> data(64 * 1024);
    bool threw = false;
    try {
      co_await c.iwrite(fd, data);
    } catch (const std::logic_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    c.close(fd);
  }(b));
}

// --- run-level prefetch statistics ---

TEST(AdaptivePrefetch, ExperimentDepthHistogramCountsEveryRead) {
  // ppfs_run --mode M_ASYNC --pattern strided --stride 4 --file 64M
  //         --prefetch-adaptive --delay 0.02
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kAsync;
  w.pattern = workload::AccessPattern::kStrided;
  w.stride = 4;
  w.file_size = 64 * 1024 * 1024;
  w.compute_delay = 0.02;
  w.prefetch = true;
  w.prefetch_cfg.adaptive_depth = true;
  w.prefetch_cfg.predictor = prefetch::PredictorKind::kEnsemble;
  const auto r = workload::Experiment().run(w);
  // With no faults to gate it, every after_read call on every engine
  // lands in exactly one depth-histogram bucket, so the summed histogram
  // counts every read of the run.
  std::uint64_t decided = 0;
  std::size_t deep_buckets = 0;
  for (std::size_t b = 0; b < r.prefetch.depth_hist.size(); ++b) {
    decided += r.prefetch.depth_hist[b];
    if (b > 1 && r.prefetch.depth_hist[b] > 0) ++deep_buckets;
  }
  EXPECT_EQ(decided, r.reads);
  EXPECT_GT(deep_buckets, 0u);  // the controller ramped past depth 1
  EXPECT_EQ(r.prefetch.fault_skips, 0u);
}

// --- buffered workloads with server readahead, end to end ---

TEST(ServerReadahead, BufferedWorkloadVerifiesAndReadahead) {
  workload::MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  m.pfs.ufs.readahead_blocks = 2;
  workload::Experiment e(m);
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 64 * 1024;
  w.file_size = 2 * 1024 * 1024;
  w.use_fastpath = false;
  w.verify = true;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
}

}  // namespace
}  // namespace ppfs
