// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Integration tests: full-stack PFS reads/writes over the simulated
// machine, every I/O mode, async reads, coordination services.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"
#include "test_util.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace ppfs::pfs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

constexpr ByteCount kSU = 64 * 1024;

/// A full simulated Paragon with a PFS mount and N client processes.
struct Testbed {
  explicit Testbed(int ncompute = 8, int nio = 8) : machine(sim, hw::MachineConfig::paragon(ncompute, nio)), fs(machine, PfsParams{}) {
    for (int r = 0; r < ncompute; ++r) {
      clients.push_back(std::make_unique<PfsClient>(fs, r, r, ncompute));
    }
  }

  /// Populate a PFS file with the deterministic pattern via rank 0's
  /// positioned writes (fast, exercises write path once).
  void populate(const std::string& name, ByteCount size, StripeAttrs attrs) {
    fs.create(name, attrs);
    run_task(sim, [](Testbed& tb, std::string n, ByteCount sz) -> Task<void> {
      const int fd = co_await tb.clients[0]->open(n, IoMode::kAsync);
      auto data = make_pattern(1, 0, sz);
      co_await tb.clients[0]->write(fd, data);
      tb.clients[0]->close(fd);
    }(*this, name, size));
  }
  void populate(const std::string& name, ByteCount size) {
    populate(name, size, fs.default_attrs());
  }

  Simulation sim;
  hw::Machine machine;
  PfsFileSystem fs;
  std::vector<std::unique_ptr<PfsClient>> clients;
};

TEST(PfsFileSystem, CreateMakesStripeFiles) {
  Testbed tb;
  auto& meta = tb.fs.create("f", tb.fs.default_attrs());
  EXPECT_EQ(meta.stripe_inos.size(), 8u);
  for (int io = 0; io < 8; ++io) {
    EXPECT_NE(tb.fs.server(io).ufs().lookup("f.s" + std::to_string(io)),
              ufs::kInvalidInode);
  }
  EXPECT_THROW(tb.fs.create("f", tb.fs.default_attrs()), std::invalid_argument);
}

TEST(PfsFileSystem, RejectsBadStripeGroup) {
  Testbed tb;
  StripeAttrs a;
  a.stripe_group = {0, 99};
  EXPECT_THROW(tb.fs.create("bad", a), std::out_of_range);
}

TEST(PfsClient, OpenUnknownFileThrows) {
  Testbed tb;
  bool threw = false;
  run_task(tb.sim, [](Testbed& t, bool& flag) -> Task<void> {
    try {
      co_await t.clients[0]->open("ghost", IoMode::kAsync);
    } catch (const std::invalid_argument&) {
      flag = true;
    }
  }(tb, threw));
  EXPECT_TRUE(threw);
}

TEST(PfsClient, WriteReadRoundTripSingleClient) {
  Testbed tb;
  const ByteCount size = 2 * 1024 * 1024;
  tb.populate("f", size);
  std::vector<std::byte> buf(size);
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> out) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    const auto got = co_await t.clients[0]->read(fd, out);
    EXPECT_EQ(got, out.size());
    t.clients[0]->close(fd);
  }(tb, buf));
  EXPECT_TRUE(check_pattern(buf, 1, 0));
}

TEST(PfsClient, ReadAtArbitraryOffsets) {
  Testbed tb;
  tb.populate("f", 1024 * 1024);
  // Offsets chosen to cross stripe-unit and block boundaries.
  for (FileOffset off : std::vector<FileOffset>{0, 1000, kSU - 1, kSU, 3 * kSU + 17, 900 * 1024}) {
    std::vector<std::byte> buf(200 * 1024);
    ByteCount got = 0;
    run_task(tb.sim, [](Testbed& t, FileOffset o, std::span<std::byte> out,
                        ByteCount& n) -> Task<void> {
      const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
      n = co_await t.clients[0]->read_at(fd, o, out.size(), out, true);
      t.clients[0]->close(fd);
    }(tb, off, buf, got));
    const ByteCount expect = std::min<ByteCount>(buf.size(), 1024 * 1024 - off);
    EXPECT_EQ(got, expect);
    EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).subspan(0, got), 1, off));
  }
}

TEST(PfsClient, RecordModeCollectiveCoversFileInRankOrder) {
  Testbed tb;
  const ByteCount req = 64 * 1024;
  const ByteCount size = req * 8 * 4;  // 4 rounds
  tb.populate("f", size);
  std::vector<std::vector<std::byte>> bufs(8);
  std::vector<Task<void>> procs;
  for (int r = 0; r < 8; ++r) {
    bufs[r].resize(size / 8);
    procs.push_back([](Testbed& t, int rank, std::span<std::byte> mine,
                       ByteCount rq) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kRecord);
      for (ByteCount done = 0; done < mine.size(); done += rq) {
        const auto got = co_await t.clients[rank]->read(fd, mine.subspan(done, rq));
        EXPECT_EQ(got, rq);
      }
      t.clients[rank]->close(fd);
    }(tb, r, bufs[r], req));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  // Rank r's round k data is file range [(k*8 + r) * req, ...).
  for (int r = 0; r < 8; ++r) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(check_pattern(
          std::span<const std::byte>(bufs[r]).subspan(k * req, req), 1,
          (static_cast<FileOffset>(k) * 8 + r) * req))
          << "rank " << r << " round " << k;
    }
  }
}

TEST(PfsClient, SyncModeAssignsNodeOrderedVariableSizes) {
  Testbed tb(4, 4);
  tb.populate("f", 1024 * 1024);
  // Rank r reads (r+1)*16KB per round; offsets must be rank-ordered.
  std::vector<std::vector<std::byte>> bufs(4);
  std::vector<Task<void>> procs;
  for (int r = 0; r < 4; ++r) {
    bufs[r].resize((r + 1) * 16 * 1024);
    procs.push_back([](Testbed& t, int rank, std::span<std::byte> mine) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kSync);
      const auto got = co_await t.clients[rank]->read(fd, mine);
      EXPECT_EQ(got, mine.size());
      t.clients[rank]->close(fd);
    }(tb, r, bufs[r]));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  FileOffset expect_off = 0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(check_pattern(bufs[r], 1, expect_off)) << "rank " << r;
    expect_off += bufs[r].size();
  }
  EXPECT_EQ(tb.fs.collectives().rounds_completed(), 1u);
}

TEST(PfsClient, GlobalModeAllRanksSeeSameData) {
  Testbed tb(4, 4);
  tb.populate("f", 1024 * 1024);
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(128 * 1024));
  std::vector<Task<void>> procs;
  for (int r = 0; r < 4; ++r) {
    procs.push_back([](Testbed& t, int rank, std::span<std::byte> mine) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kGlobal);
      co_await t.clients[rank]->read(fd, mine);   // round 1
      co_await t.clients[rank]->read(fd, mine);   // round 2
      t.clients[rank]->close(fd);
    }(tb, r, bufs[r]));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  // After two rounds every rank holds round 2's data: file offset 128K.
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(check_pattern(bufs[r], 1, 128 * 1024)) << "rank " << r;
  }
}

TEST(PfsClient, LogModeClaimsDisjointRegions) {
  Testbed tb(4, 4);
  tb.populate("f", 512 * 1024);
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(64 * 1024));
  std::vector<FileOffset> claimed(4);
  std::vector<Task<void>> procs;
  for (int r = 0; r < 4; ++r) {
    procs.push_back([](Testbed& t, int rank, std::span<std::byte> mine,
                       FileOffset& off_out) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kLog);
      co_await t.clients[rank]->read(fd, mine);
      off_out = t.clients[rank]->tell(fd) - mine.size();
      t.clients[rank]->close(fd);
    }(tb, r, bufs[r], claimed[r]));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  // All four claims are distinct 64K-aligned regions in [0, 256K).
  std::vector<bool> seen(4, false);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(claimed[r] % (64 * 1024), 0u);
    const auto slot = claimed[r] / (64 * 1024);
    ASSERT_LT(slot, 4u);
    EXPECT_FALSE(seen[slot]);
    seen[slot] = true;
    EXPECT_TRUE(check_pattern(bufs[r], 1, claimed[r]));
  }
}

TEST(PfsClient, UnixModeSerializesAccesses) {
  // With the atomicity lock, two concurrent reads must not overlap in time.
  Testbed tb(2, 2);
  tb.populate("f", 1024 * 1024);
  std::vector<std::pair<SimTime, SimTime>> spans(2);
  std::vector<Task<void>> procs;
  for (int r = 0; r < 2; ++r) {
    procs.push_back([](Testbed& t, int rank, std::pair<SimTime, SimTime>& sp) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kUnix);
      co_await t.clients[rank]->seek(fd, static_cast<FileOffset>(rank) * 256 * 1024);
      std::vector<std::byte> buf(256 * 1024);
      const SimTime t0 = t.sim.now();
      co_await t.clients[rank]->read(fd, buf);
      sp = {t0, t.sim.now()};
      EXPECT_TRUE(check_pattern(buf, 1, static_cast<FileOffset>(rank) * 256 * 1024));
      t.clients[rank]->close(fd);
    }(tb, r, spans[r]));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  // One read's data phase must start after the other finished (serialized
  // by the file lock) — their [lock-held] intervals cannot nest. We check
  // the weaker, timing-robust property: total elapsed >= sum of solo times
  // would be flaky, so instead assert the completions are distinct and
  // ordered.
  EXPECT_NE(spans[0].second, spans[1].second);
}

TEST(PfsClient, AsyncIreadIowaitDeliversData) {
  Testbed tb;
  tb.populate("f", 512 * 1024);
  std::vector<std::byte> b1(64 * 1024), b2(64 * 1024);
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> o1, std::span<std::byte> o2) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    auto h1 = co_await t.clients[0]->iread(fd, o1);
    auto h2 = co_await t.clients[0]->iread(fd, o2);
    // Pointer advanced at issue time:
    EXPECT_EQ(t.clients[0]->tell(fd), 128u * 1024);
    EXPECT_EQ(co_await t.clients[0]->iowait(h1), 64u * 1024);
    EXPECT_EQ(co_await t.clients[0]->iowait(h2), 64u * 1024);
    t.clients[0]->close(fd);
  }(tb, b1, b2));
  EXPECT_TRUE(check_pattern(b1, 1, 0));
  EXPECT_TRUE(check_pattern(b2, 1, 64 * 1024));
}

TEST(PfsClient, AsyncOverlapsWithUserDelay) {
  // iread then a compute delay: the read should progress during the delay,
  // so iowait after delay >= read-time costs ~nothing extra.
  Testbed tb;
  tb.populate("f", 8 * 1024 * 1024);
  SimTime solo = 0, overlapped = 0;
  run_task(tb.sim, [](Testbed& t, SimTime& solo_out, SimTime& over_out) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(1024 * 1024);
    // Solo timing.
    SimTime t0 = t.sim.now();
    co_await t.clients[0]->read(fd, buf);
    solo_out = t.sim.now() - t0;
    // Overlapped: issue, compute for 2x solo, then wait.
    auto h = co_await t.clients[0]->iread(fd, buf);
    t0 = t.sim.now();
    co_await t.sim.delay(2 * solo_out);
    const SimTime before_wait = t.sim.now();
    co_await t.clients[0]->iowait(h);
    over_out = t.sim.now() - before_wait;
    t.clients[0]->close(fd);
  }(tb, solo, overlapped));
  EXPECT_LT(overlapped, solo * 0.1);  // essentially free after the overlap
}

TEST(PfsClient, IreadRejectsCoordinatedModes) {
  Testbed tb;
  tb.populate("f", 256 * 1024);
  bool threw = false;
  run_task(tb.sim, [](Testbed& t, bool& flag) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kLog);
    std::vector<std::byte> buf(64 * 1024);
    try {
      co_await t.clients[0]->iread(fd, buf);
    } catch (const std::logic_error&) {
      flag = true;
    }
    t.clients[0]->close(fd);
  }(tb, threw));
  EXPECT_TRUE(threw);
}

TEST(PfsClient, ReadPastEofClampsAndReturnsZeroAtEof) {
  Testbed tb;
  tb.populate("f", 100 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->seek(fd, 90 * 1024);
    EXPECT_EQ(co_await t.clients[0]->read(fd, buf), 10u * 1024);
    EXPECT_EQ(co_await t.clients[0]->read(fd, buf), 0u);
    t.clients[0]->close(fd);
  }(tb));
}

TEST(PfsClient, ReadAcrossEofLeavesBytesPastTheCountUntouched) {
  // Two clamped reads that cross EOF. From 40 KB in a 100 KB file, each
  // slot's extent is one piece (two RPCs). From 0 in a 600 KB file, slots
  // 0-1 get two pieces each (eight RPCs). Every extent is read straight
  // into the caller's buffer through its view, and nothing past the
  // returned count is written.
  constexpr auto kSentinel = std::byte{0x5a};
  struct Case {
    ByteCount file_size;
    FileOffset off;
    std::uint64_t rpcs;
  };
  for (const Case c : {Case{100 * 1024, 40 * 1024, 2}, Case{600 * 1024, 0, 8}}) {
    Testbed tb;
    tb.populate("f", c.file_size);
    std::vector<std::byte> buf(1024 * 1024, kSentinel);
    ByteCount got = 0;
    run_task(tb.sim, [](Testbed& t, FileOffset o, std::span<std::byte> out,
                        ByteCount& n) -> Task<void> {
      const int fd = co_await t.clients[1]->open("f", IoMode::kAsync);
      n = co_await t.clients[1]->read_at(fd, o, out.size(), out, true);
      t.clients[1]->close(fd);
    }(tb, c.off, buf, got));
    ASSERT_EQ(got, c.file_size - c.off);
    EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).first(got), 1, c.off));
    for (std::size_t i = got; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], kSentinel) << "byte " << i << " past the count was written";
    }
    EXPECT_EQ(tb.clients[1]->rpc_stats().data_rpcs, c.rpcs);
  }
}

TEST(PfsClient, HolesReadAsZerosOnBothPaths) {
  // Units 0-7 and 9 are written, unit 8 never is: stripe file 0 ends one
  // unit before the PFS file does. Reading all ten units gives slot 0 a
  // two-piece extent (units 0 and 8) whose server returns unit 0 only;
  // reading unit 8 alone is one piece. Both count the hole and fill it
  // with zeros through the extent's view.
  Testbed tb;
  tb.fs.create("h", tb.fs.default_attrs());
  const auto head = make_pattern(1, 0, 8 * kSU);
  const auto tail = make_pattern(1, 9 * kSU, kSU);
  run_task(tb.sim, [](Testbed& t, std::span<const std::byte> h,
                      std::span<const std::byte> tl) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("h", IoMode::kAsync);
    co_await c.write(fd, h);
    co_await c.seek(fd, 9 * kSU);
    co_await c.write(fd, tl);
    c.close(fd);
  }(tb, head, tail));

  constexpr auto kSentinel = std::byte{0x5a};
  std::vector<std::byte> all(10 * kSU, kSentinel);
  std::vector<std::byte> unit8(kSU, kSentinel);
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> a, std::span<std::byte> u) -> Task<void> {
    auto& c = *t.clients[1];
    const int fd = co_await c.open("h", IoMode::kAsync);
    EXPECT_EQ(co_await c.read_at(fd, 0, a.size(), a, true), a.size());
    EXPECT_EQ(co_await c.read_at(fd, 8 * kSU, u.size(), u, true), u.size());
    c.close(fd);
  }(tb, all, unit8));
  const auto is_zero = [](std::byte b) { return b == std::byte{0}; };
  const std::span<const std::byte> got(all);
  EXPECT_TRUE(check_pattern(got.first(8 * kSU), 1, 0));
  EXPECT_TRUE(std::all_of(got.begin() + 8 * kSU, got.begin() + 9 * kSU, is_zero));
  EXPECT_TRUE(check_pattern(got.subspan(9 * kSU), 1, 9 * kSU));
  EXPECT_TRUE(std::all_of(unit8.begin(), unit8.end(), is_zero));
  // Eight RPCs for the ten units (slots 0 and 1 carry two pieces each),
  // one for unit 8.
  EXPECT_EQ(tb.clients[1]->rpc_stats().data_rpcs, 9u);
}

TEST(PfsClient, MultiPieceExtentsLandOnceAndStayByteExact) {
  // 640 KB from 32 KB over eight 64 KB stripe units. Slots 0-2 each get two
  // pieces (32+64, 64+64 and 64+32 KB), slots 3-7 one piece each. Every
  // extent lands through its view, and the servers read each byte once.
  Testbed tb;
  tb.populate("f", 1024 * 1024);
  ByteCount served_before = 0;
  for (int io = 0; io < 8; ++io) served_before += tb.fs.server(io).ufs().stats().bytes_read;
  std::vector<std::byte> buf(640 * 1024);
  ByteCount got = 0;
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> out, ByteCount& n) -> Task<void> {
    const int fd = co_await t.clients[1]->open("f", IoMode::kAsync);
    n = co_await t.clients[1]->read_at(fd, 32 * 1024, out.size(), out, true);
    t.clients[1]->close(fd);
  }(tb, buf, got));
  EXPECT_EQ(got, buf.size());
  EXPECT_TRUE(check_pattern(buf, 1, 32 * 1024));
  EXPECT_EQ(tb.clients[1]->rpc_stats().data_rpcs, 8u);
  ByteCount served = 0;
  for (int io = 0; io < 8; ++io) served += tb.fs.server(io).ufs().stats().bytes_read;
  EXPECT_EQ(served - served_before, buf.size());
}

TEST(PfsClient, LostReplyOnADirectExtentIsReissuedByteExact) {
  // io0 crashes while it serves a one-piece extent that is being read
  // straight into the caller's buffer. The reply is lost; the client waits
  // out the outage, reissues, and the buffer ends byte-exact.
  Testbed tb;
  tb.populate("f", 1024 * 1024);
  PfsServer& io0 = tb.fs.server(0);
  const std::uint64_t served_before = io0.requests_served();
  std::vector<std::byte> buf(kSU, std::byte{0x5a});
  run_task(tb.sim, [](Testbed& t, PfsServer& srv, std::span<std::byte> out) -> Task<void> {
    const int fd = co_await t.clients[1]->open("f", IoMode::kAsync);
    t.sim.call_at(t.sim.now() + 0.002, [&srv] { srv.crash(); });
    t.sim.call_at(t.sim.now() + 0.030, [&srv] { srv.restore(); });
    EXPECT_EQ(co_await t.clients[1]->read(fd, out), out.size());
    t.clients[1]->close(fd);
  }(tb, io0, buf));
  EXPECT_TRUE(check_pattern(buf, 1, 0));
  // Served twice: the attempt whose reply the crash lost, then the reissue.
  EXPECT_EQ(io0.requests_served() - served_before, 2u);
  const RpcStats& rpc = tb.clients[1]->rpc_stats();
  EXPECT_EQ(rpc.retries, 1u);
  EXPECT_EQ(rpc.retried_ok, 1u);
  EXPECT_EQ(rpc.data_rpcs, 1u);
}

TEST(PfsClient, SeekMovesPointer) {
  Testbed tb;
  tb.populate("f", 256 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    co_await t.clients[0]->seek(fd, 128 * 1024);
    EXPECT_EQ(t.clients[0]->tell(fd), 128u * 1024);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    EXPECT_TRUE(check_pattern(buf, 1, 128 * 1024));
    t.clients[0]->close(fd);
  }(tb));
}

TEST(PfsClient, NextReadOffsetPrediction) {
  Testbed tb;
  tb.populate("f", 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[3]->open("f", IoMode::kRecord);
    EXPECT_TRUE(t.clients[3]->next_offset_predictable(fd));
    // rank 3 of 8: first read at 3*64K.
    EXPECT_EQ(t.clients[3]->next_read_offset(fd, 64 * 1024), 3u * 64 * 1024);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[3]->read(fd, buf);
    // Next round: (8 + 3) * 64K.
    EXPECT_EQ(t.clients[3]->next_read_offset(fd, 64 * 1024), 11u * 64 * 1024);
    t.clients[3]->close(fd);
  }(tb));
}

TEST(PfsClient, StatsAccumulate) {
  Testbed tb;
  tb.populate("f", 256 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    co_await t.clients[0]->read(fd, buf);
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_EQ(tb.clients[0]->stats().reads, 2u);
  EXPECT_EQ(tb.clients[0]->stats().bytes_read, 128u * 1024);
  EXPECT_GT(tb.clients[0]->stats().read_time, 0.0);
}

TEST(PfsClient, SeparateFilesDontInterfereLogically) {
  Testbed tb(4, 4);
  for (int r = 0; r < 4; ++r) {
    tb.fs.create("own" + std::to_string(r), tb.fs.default_attrs());
  }
  // Each rank writes then reads back its own file concurrently.
  std::vector<Task<void>> procs;
  for (int r = 0; r < 4; ++r) {
    procs.push_back([](Testbed& t, int rank) -> Task<void> {
      auto& client = *t.clients[rank];
      const int fd = co_await client.open("own" + std::to_string(rank), IoMode::kAsync);
      auto data = make_pattern(100 + rank, 0, 256 * 1024);
      co_await client.write(fd, data);
      co_await client.seek(fd, 0);
      std::vector<std::byte> back(256 * 1024);
      co_await client.read(fd, back);
      EXPECT_TRUE(check_pattern(back, 100 + rank, 0));
      client.close(fd);
    }(tb, r));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
}

// --- coordinated-mode writes ------------------------------------------------
//
// The experiment drivers only write in M_ASYNC, so these pin the write side
// of the per-mode pointer/lock/collective claim: one 64 KB write per rank in
// each coordinated mode on a 4x4 test bed, traced.

struct ModeWriteRun {
  std::uint64_t digest = 0;
  std::size_t pointer_spans = 0;    // kRpcPointer spans opened
  std::size_t unflagged_spans = 0;  // ... of which lack kFlagWrite
};

ModeWriteRun run_mode_write(IoMode mode) {
  Testbed tb(4, 4);
  tb.populate("f", 512 * 1024);
  trace::TraceSink sink;
  tb.sim.set_trace_sink(&sink);
  std::vector<std::vector<std::byte>> bufs;
  for (int r = 0; r < 4; ++r) bufs.push_back(make_pattern(10 + r, 0, 64 * 1024));
  std::vector<Task<void>> procs;
  for (int r = 0; r < 4; ++r) {
    procs.push_back([](Testbed& t, int rank, IoMode m,
                       std::span<const std::byte> in) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", m);
      EXPECT_EQ(co_await t.clients[rank]->write(fd, in), in.size());
      t.clients[rank]->close(fd);
    }(tb, r, mode, bufs[r]));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));
  tb.sim.set_trace_sink(nullptr);

  ModeWriteRun out;
  out.digest = tb.sim.digest();
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const trace::TraceRecord& rec = sink.at(i);
    if (rec.track != trace::TraceTrack::kRpc || rec.event != trace::code::kRpcPointer ||
        rec.kind != trace::TraceKind::kSpanBegin) {
      continue;
    }
    ++out.pointer_spans;
    if ((rec.flags & trace::kFlagWrite) == 0) ++out.unflagged_spans;
  }
  return out;
}

constexpr std::pair<IoMode, std::uint64_t> kModeWriteGoldens[] = {
    {IoMode::kUnix, 0xddf83cff81602773ull},
    {IoMode::kLog, 0x27b36be210da1c19ull},
    {IoMode::kSync, 0x99a7a44e2a271620ull},
    {IoMode::kGlobal, 0xf2630392c10c89bdull},
};

TEST(PfsClient, CoordinatedModeWritesKeepGoldenDigests) {
  for (const auto& [mode, digest] : kModeWriteGoldens) {
    const std::uint64_t got = run_mode_write(mode).digest;
    EXPECT_EQ(got, digest) << to_string(mode) << std::hex << " got 0x" << got;
  }
}

TEST(PfsClient, WritePointerSpansCarryWriteFlag) {
  for (const auto& [mode, digest] : kModeWriteGoldens) {
    const ModeWriteRun run = run_mode_write(mode);
    EXPECT_EQ(run.pointer_spans, 4u) << to_string(mode);
    EXPECT_EQ(run.unflagged_spans, 0u) << to_string(mode);
  }
}

TEST(ArtQueue, FifoIssueOrder) {
  Simulation sim;
  std::vector<int> issue_order;
  ArtQueue q(sim, 1, [&](const AsyncRequest& r) -> Task<ByteCount> {
    issue_order.push_back(r.fd);
    co_await sim.delay(1.0);
    co_return r.length;
  });
  for (int i = 0; i < 3; ++i) {
    auto req = std::make_shared<AsyncRequest>(sim);
    req->fd = i;
    req->length = 10;
    q.post(req);
  }
  sim.run();
  EXPECT_EQ(issue_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.completed(), 3u);
}

TEST(ArtQueue, ConcurrencyBoundedByMaxArts) {
  Simulation sim;
  int active = 0, peak = 0;
  ArtQueue q(sim, 2, [&](const AsyncRequest&) -> Task<ByteCount> {
    ++active;
    peak = std::max(peak, active);
    co_await sim.delay(1.0);
    --active;
    co_return 0;
  });
  for (int i = 0; i < 6; ++i) q.post(std::make_shared<AsyncRequest>(sim));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(q.completed(), 6u);
}

TEST(ArtQueue, ErrorsPropagateThroughWait) {
  Simulation sim;
  ArtQueue q(sim, 1, [&](const AsyncRequest&) -> Task<ByteCount> {
    co_await sim.delay(0.1);
    throw std::runtime_error("io error");
  });
  auto req = std::make_shared<AsyncRequest>(sim);
  q.post(req);
  bool threw = false;
  sim.spawn([](ArtQueue& queue, AsyncHandle h, bool& flag) -> Task<void> {
    try {
      co_await queue.wait(std::move(h));
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(q, req, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace ppfs::pfs
