// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Tests for the prefetch engine — the paper's contribution.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/error.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "prefetch/predictor.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"
#include "test_util.hpp"

namespace ppfs::prefetch {
namespace {

using pfs::IoMode;
using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

struct Testbed {
  explicit Testbed(int ncompute = 8, int nio = 8, pfs::PfsParams params = {})
      : Testbed(hw::MachineConfig::paragon(ncompute, nio), params) {}
  Testbed(const hw::MachineConfig& cfg, pfs::PfsParams params)
      : machine(sim, cfg), fs(machine, params) {
    const int ncompute = machine.compute_node_count();
    for (int r = 0; r < ncompute; ++r) {
      clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, ncompute));
    }
  }

  void populate(const std::string& name, ByteCount size) {
    fs.create(name, fs.default_attrs());
    run_task(sim, [](Testbed& tb, std::string n, ByteCount sz) -> Task<void> {
      const int fd = co_await tb.clients[0]->open(n, IoMode::kAsync);
      auto data = make_pattern(1, 0, sz);
      co_await tb.clients[0]->write(fd, data);
      tb.clients[0]->close(fd);
    }(*this, name, size));
  }

  Simulation sim;
  hw::Machine machine;
  pfs::PfsFileSystem fs;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
};

/// Old-style convenience over the observe/predict split: feed the read into
/// history, then collect up to `depth` predictions into a vector.
std::vector<FileOffset> predict_vec(Predictor& p, pfs::PfsClient& c, int fd,
                                    FileOffset off, ByteCount len, std::size_t depth) {
  p.observe(c, fd, off, len);
  std::vector<FileOffset> out(depth);
  out.resize(p.predict(c, fd, off, len, out));
  return out;
}

TEST(PrefetchBufferList, ExactMatchFindAndRemove) {
  PrefetchBufferList list;
  auto b = std::make_shared<PrefetchBuffer>();
  b->offset = 100;
  b->length = 50;
  list.add(b);
  EXPECT_EQ(list.find(100, 50), b);
  EXPECT_EQ(list.find(100, 49), nullptr);
  EXPECT_EQ(list.find(99, 50), nullptr);
  EXPECT_EQ(list.resident_bytes(), 50u);
  list.remove(b);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.resident_bytes(), 0u);
}

TEST(PrefetchBufferList, OverlappingDetection) {
  PrefetchBufferList list;
  auto b = std::make_shared<PrefetchBuffer>();
  b->offset = 100;
  b->length = 50;
  list.add(b);
  EXPECT_EQ(list.overlapping(140, 20).size(), 1u);
  EXPECT_EQ(list.overlapping(150, 20).size(), 0u);  // touches end: disjoint
  EXPECT_EQ(list.overlapping(50, 50).size(), 0u);
  EXPECT_EQ(list.overlapping(0, 1000).size(), 1u);
}

TEST(PrefetchBufferList, DrainReturnsEverything) {
  PrefetchBufferList list;
  for (int i = 0; i < 3; ++i) {
    auto b = std::make_shared<PrefetchBuffer>();
    b->offset = i * 100;
    b->length = 100;
    list.add(b);
  }
  auto all = list.drain();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(list.empty());
}

TEST(Predictor, SequentialPredictsNextBlocks) {
  Testbed tb(1, 1);
  tb.populate("f", 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    SequentialPredictor p;
    auto v = predict_vec(p, *t.clients[0], fd, 0, 64 * 1024, 3);
    EXPECT_EQ(v.size(), 3u);
    if (v.size() == 3) {
      EXPECT_EQ(v[0], 64u * 1024);
      EXPECT_EQ(v[1], 128u * 1024);
      EXPECT_EQ(v[2], 192u * 1024);
    }
    // Near EOF it truncates.
    auto w = predict_vec(p, *t.clients[0], fd, 960 * 1024, 64 * 1024, 3);
    EXPECT_EQ(w.size(), 0u);
    t.clients[0]->close(fd);
  }(tb));
}

TEST(Predictor, ModeAwareFollowsRecordInterleave) {
  Testbed tb(8, 8);
  tb.populate("f", 8 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    auto& c = *t.clients[2];  // rank 2 of 8
    const int fd = co_await c.open("f", IoMode::kRecord);
    std::vector<std::byte> buf(64 * 1024);
    co_await c.read(fd, buf);  // record 2; pointer now one round in
    ModeAwarePredictor p;
    auto v = predict_vec(p, c, fd, 2 * 64 * 1024, 64 * 1024, 2);
    EXPECT_EQ(v.size(), 2u);
    if (v.size() == 2) {
      EXPECT_EQ(v[0], (8u + 2) * 64 * 1024);   // next round, rank 2
      EXPECT_EQ(v[1], (16u + 2) * 64 * 1024);  // round after
    }
    c.close(fd);
  }(tb));
}

TEST(Predictor, ModeAwareDeclinesUnpredictableModes) {
  Testbed tb(2, 2);
  tb.populate("f", 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kLog);
    ModeAwarePredictor p;
    EXPECT_TRUE(predict_vec(p, *t.clients[0], fd, 0, 64 * 1024, 1).empty());
    t.clients[0]->close(fd);
  }(tb));
}

TEST(Predictor, StridedLearnsAndForgets) {
  Testbed tb(1, 1);
  tb.populate("f", 4 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    StridedPredictor p;
    auto& c = *t.clients[0];
    EXPECT_TRUE(predict_vec(p, c, fd, 0, 4096, 2).empty());   // no history
    EXPECT_TRUE(predict_vec(p, c, fd, 100000, 4096, 2).empty());  // one delta
    auto v = predict_vec(p, c, fd, 200000, 4096, 2);  // stride confirmed
    EXPECT_EQ(v.size(), 2u);
    if (v.size() == 2) {
      EXPECT_EQ(v[0], 300000u);
      EXPECT_EQ(v[1], 400000u);
    }
    // Pattern break resets confidence.
    EXPECT_TRUE(predict_vec(p, c, fd, 123, 4096, 2).empty());
    t.clients[0]->close(fd);
  }(tb));
}

TEST(PrefetchEngine, DataIntegrityUnderPrefetchingRecordMode) {
  Testbed tb(8, 8);
  const ByteCount req = 64 * 1024;
  const ByteCount size = req * 8 * 4;
  tb.populate("f", size);
  std::vector<std::unique_ptr<PrefetchEngine>> engines;
  for (auto& c : tb.clients) engines.push_back(attach_prefetcher(*c, PrefetchConfig{}));

  std::vector<std::vector<std::byte>> bufs(8);
  std::vector<Task<void>> procs;
  for (int r = 0; r < 8; ++r) {
    bufs[r].resize(size / 8);
    procs.push_back([](Testbed& t, int rank, std::span<std::byte> mine,
                       ByteCount rq) -> Task<void> {
      const int fd = co_await t.clients[rank]->open("f", IoMode::kRecord);
      for (ByteCount done = 0; done < mine.size(); done += rq) {
        co_await t.clients[rank]->read(fd, mine.subspan(done, rq));
        co_await t.sim.delay(0.05);  // compute phase -> prefetches complete
      }
      t.clients[rank]->close(fd);
    }(tb, r, bufs[r], req));
  }
  run_task(tb.sim, sim::when_all(tb.sim, std::move(procs)));

  for (int r = 0; r < 8; ++r) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(check_pattern(
          std::span<const std::byte>(bufs[r]).subspan(k * req, req), 1,
          (static_cast<FileOffset>(k) * 8 + r) * req));
    }
  }
  // Rounds 2..4 should be hits for every rank.
  for (int r = 0; r < 8; ++r) {
    const auto& st = engines[r]->stats();
    EXPECT_EQ(st.hits_ready + st.hits_in_flight, 3u) << "rank " << r;
    EXPECT_EQ(st.misses, 1u) << "rank " << r;
  }
}

TEST(PrefetchEngine, FirstReadMissesThenHits) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(128 * 1024);
    for (int i = 0; i < 4; ++i) {
      co_await t.clients[0]->read(fd, buf);
      co_await t.sim.delay(0.5);  // plenty of time for the prefetch
    }
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_EQ(engine->stats().misses, 1u);
  EXPECT_EQ(engine->stats().hits_ready, 3u);
  EXPECT_EQ(engine->stats().hits_in_flight, 0u);
}

TEST(PrefetchEngine, PrefetchReachingEofServesOnlyTheResultBytes) {
  // A 100 KB file read 64 KB at a time: the one-ahead prefetch of
  // [64 KB, 128 KB) comes back with 36 KB in an uninitialised 64 KB buffer.
  // The hit serves exactly those bytes and leaves the rest of the caller's
  // buffer alone.
  Testbed tb(1, 8);
  tb.populate("f", 100 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  constexpr auto kSentinel = std::byte{0x5a};
  std::vector<std::byte> buf(64 * 1024, kSentinel);
  ByteCount got = 0;
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> out, ByteCount& n) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> first(out.size());
    co_await t.clients[0]->read(fd, first);  // miss; prefetches the tail
    co_await t.sim.delay(0.5);
    n = co_await t.clients[0]->read(fd, out);
    t.clients[0]->close(fd);
  }(tb, buf, got));
  EXPECT_EQ(engine->stats().hits_ready, 1u);
  EXPECT_EQ(engine->stats().bytes_served, 36u * 1024);
  ASSERT_EQ(got, 36u * 1024);
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).first(got), 1, 64 * 1024));
  for (std::size_t i = got; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], kSentinel) << "byte " << i << " past the prefetch result was written";
  }
}

TEST(PrefetchEngine, BackToBackReadsHitInFlight) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(128 * 1024);
    for (int i = 0; i < 4; ++i) co_await t.clients[0]->read(fd, buf);  // no delay
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_EQ(engine->stats().misses, 1u);
  EXPECT_EQ(engine->stats().hits_in_flight, 3u);
  EXPECT_GT(engine->stats().wait_time, 0.0);
}

TEST(PrefetchEngine, PrefetchDoesNotMoveFilePointer) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    const auto ptr_after_read = t.clients[0]->tell(fd);
    co_await t.sim.delay(1.0);  // prefetch completes meanwhile
    EXPECT_EQ(t.clients[0]->tell(fd), ptr_after_read);
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_GE(engine->stats().issued, 1u);
}

TEST(PrefetchEngine, SeekMakesBufferStale) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);      // prefetch for 64K issued
    co_await t.sim.delay(0.5);
    co_await t.clients[0]->seek(fd, 32 * 1024);  // overlaps the buffered 64K..128K? no:
    // seek to 96K so the next read [96K,160K) overlaps the [64K,128K) buffer
    co_await t.clients[0]->seek(fd, 96 * 1024);
    co_await t.clients[0]->read(fd, buf);
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
  EXPECT_EQ(engine->stats().hits_ready, 0u);
}

// A client's own write over a range it has prefetched: the buffer holds the
// bytes from before the write, so the write's arrival at the I/O nodes drops
// it, landed or in flight, and the next read of the range goes to them.

constexpr ByteCount kBlock = 64 * 1024;

/// On a 4x4 machine, through client 0 alone: writes four blocks of tag 1,
/// reads block 0 (a miss, which prefetches block 1), waits `land` seconds,
/// writes `over` bytes of tag 2 at the start of block 1 (by iwrite and
/// iowait when `async`), and reads block 1 back into `out`.
Task<void> write_over_prefetch(Testbed& t, SimTime land, ByteCount over, bool async,
                               std::span<std::byte> out) {
  auto& c = *t.clients[0];
  const int fd = co_await c.open("f", IoMode::kAsync);
  co_await c.write(fd, make_pattern(1, 0, 4 * kBlock));
  co_await c.fsync(fd);  // with write tokens, the servers now hold tag 1
  co_await c.seek(fd, 0);
  std::vector<std::byte> block0(kBlock);
  co_await c.read(fd, block0);
  if (land > 0) co_await t.sim.delay(land);
  co_await c.seek(fd, kBlock);
  const auto tag2 = make_pattern(2, kBlock, over);
  if (async) {
    co_await c.iowait(co_await c.iwrite(fd, tag2));
  } else {
    co_await c.write(fd, tag2);
  }
  co_await c.seek(fd, kBlock);
  co_await c.read(fd, out);
  c.close(fd);
}

TEST(PrefetchEngine, OwnWriteOverALandedBufferDropsIt) {
  Testbed tb(4, 4);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, write_over_prefetch(tb, /*land=*/1.0, kBlock, /*async=*/false, got));
  EXPECT_TRUE(check_pattern(got, 2, kBlock));
  EXPECT_EQ(engine->stats().hits_ready, 0u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
  EXPECT_EQ(engine->stats().misses, 2u);
}

TEST(PrefetchEngine, OwnWriteOverAnInFlightBufferDropsIt) {
  Testbed tb(4, 4);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, write_over_prefetch(tb, /*land=*/0.0, kBlock, /*async=*/false, got));
  EXPECT_TRUE(check_pattern(got, 2, kBlock));
  EXPECT_EQ(engine->stats().hits_in_flight, 0u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
  EXPECT_EQ(engine->stats().misses, 2u);
}

TEST(PrefetchEngine, OwnIwriteOverALandedBufferDropsIt) {
  Testbed tb(4, 4);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, write_over_prefetch(tb, /*land=*/1.0, kBlock, /*async=*/true, got));
  EXPECT_TRUE(check_pattern(got, 2, kBlock));
  EXPECT_EQ(engine->stats().hits_ready, 0u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
}

TEST(PrefetchEngine, OwnIwriteDropsABufferPrefetchedWhileItWasUnderWay) {
  // iwrite returns once the request is posted and an ART carries the write
  // out later. Here the write is 256 KiB bound for one I/O node, and a
  // 4 KiB prefetch hit right after the post starts a prefetch of the
  // write's first 4 KiB. With a 16 KiB mesh MTU the prefetch's request
  // passes between the write's segments, and the node serves it from its
  // buffer cache before the write's data is in: the buffer holds tag 1.
  // The write's completion drops it, and the read after iowait takes
  // tag 2 from the servers.
  constexpr ByteCount kUnit = 1024 * 1024;
  constexpr ByteCount kSmall = 4096;
  auto cfg = hw::MachineConfig::paragon(4, 4);
  cfg.mesh.mtu = 16 * 1024;
  Testbed tb(cfg, pfs::PfsParams{});
  auto attrs = tb.fs.default_attrs();
  attrs.stripe_unit = kUnit;
  tb.fs.create("f", attrs);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kSmall);
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> out) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    c.set_fastpath(fd, false);  // reads go through the I/O nodes' buffer caches
    co_await c.write(fd, make_pattern(1, 0, kUnit + kBlock));
    std::vector<std::byte> small(kSmall);
    {
      // Client 1, which prefetches nothing, brings the write's first block
      // into I/O node 1's buffer cache.
      auto& warm = *t.clients[1];
      const int wfd = co_await warm.open("f", IoMode::kAsync);
      warm.set_fastpath(wfd, false);
      co_await warm.seek(wfd, kUnit);
      co_await warm.read(wfd, small);
      warm.close(wfd);
    }
    co_await c.seek(fd, kUnit - 2 * kSmall);
    co_await c.read(fd, small);  // a miss, which prefetches the next 4 KiB
    co_await t.sim.delay(1.0);
    co_await c.seek(fd, kUnit);
    const auto tag2 = make_pattern(2, kUnit, 256 * 1024);
    auto pending = co_await c.iwrite(fd, tag2);
    co_await c.seek(fd, kUnit - kSmall);
    co_await c.read(fd, small);  // a hit, which prefetches [kUnit, kUnit + 4 KiB)
    co_await c.iowait(std::move(pending));
    co_await c.read(fd, out);
    c.close(fd);
  }(tb, got));
  EXPECT_TRUE(check_pattern(got, 2, kUnit));
  EXPECT_EQ(engine->stats().hits_ready, 1u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
  EXPECT_EQ(engine->stats().misses, 2u);
}

TEST(PrefetchEngine, OwnWriteCutShortByAFaultDropsTheBufferOfBytesItLanded) {
  // The write of tag 2 over blocks 1 and 2 lands on block 1's I/O node, but
  // block 2's node stays down past the request deadline, so the write fails.
  // Block 1 holds tag 2 all the same, and its prefetched copy must go.
  Testbed tb(4, 4);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  bool failed = false;
  run_task(tb.sim, [](Testbed& t, std::span<std::byte> out, bool& threw) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    co_await c.write(fd, make_pattern(1, 0, 4 * kBlock));
    co_await c.seek(fd, 0);
    std::vector<std::byte> block0(kBlock);
    co_await c.read(fd, block0);  // a miss, which prefetches block 1
    co_await t.sim.delay(1.0);
    t.fs.server(2).crash();
    co_await c.seek(fd, kBlock);
    try {
      co_await c.write(fd, make_pattern(2, kBlock, 2 * kBlock));
    } catch (const fault::FaultError&) {
      threw = true;
    }
    co_await c.seek(fd, kBlock);
    co_await c.read(fd, out);
    c.close(fd);
  }(tb, got, failed));
  EXPECT_TRUE(failed);
  EXPECT_TRUE(check_pattern(got, 2, kBlock));
  EXPECT_EQ(engine->stats().hits_ready, 0u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
}

// With write tokens on, a write stays dirty in the client's write-back cache
// until a flush sends it to the I/O nodes. A prefetch hit gets the dirty
// bytes laid over it, as a miss's read does, and the flush drops the buffer.

TEST(PrefetchEngine, OwnTokenWriteOfHalfALandedBufferReadsBothHalves) {
  // The half-block write stays dirty, so the landed tag-1 buffer is served
  // as a hit with the dirty tag-2 half laid over it.
  pfs::PfsParams params;
  params.write_tokens = true;
  Testbed tb(4, 4, params);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, write_over_prefetch(tb, /*land=*/1.0, kBlock / 2, /*async=*/false, got));
  const std::span<const std::byte> half(got);
  EXPECT_TRUE(check_pattern(half.first(kBlock / 2), 2, kBlock));
  EXPECT_TRUE(check_pattern(half.subspan(kBlock / 2), 1, kBlock + kBlock / 2));
  EXPECT_EQ(engine->stats().hits_ready, 1u);
}

/// With write tokens on, through client 0 alone: writes and flushes four
/// blocks of tag 1, writes tag 2 over the first half of block 1 (it stays
/// dirty), reads block 0 (a miss, which prefetches block 1 from the servers'
/// tag-1 bytes), waits 1 s for the prefetch to land, fsyncs when `flush`,
/// and reads block 1 back into `out`.
Task<void> dirty_half_then_prefetch(Testbed& t, bool flush, std::span<std::byte> out) {
  auto& c = *t.clients[0];
  const int fd = co_await c.open("f", IoMode::kAsync);
  co_await c.write(fd, make_pattern(1, 0, 4 * kBlock));
  co_await c.fsync(fd);
  co_await c.seek(fd, kBlock);
  co_await c.write(fd, make_pattern(2, kBlock, kBlock / 2));
  co_await c.seek(fd, 0);
  std::vector<std::byte> block0(kBlock);
  co_await c.read(fd, block0);
  co_await t.sim.delay(1.0);
  if (flush) co_await c.fsync(fd);
  co_await c.read(fd, out);
  c.close(fd);
}

TEST(PrefetchEngine, OwnDirtyBytesOverlayABufferPrefetchedAfterTheWrite) {
  pfs::PfsParams params;
  params.write_tokens = true;
  Testbed tb(4, 4, params);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, dirty_half_then_prefetch(tb, /*flush=*/false, got));
  const std::span<const std::byte> half(got);
  EXPECT_TRUE(check_pattern(half.first(kBlock / 2), 2, kBlock));
  EXPECT_TRUE(check_pattern(half.subspan(kBlock / 2), 1, kBlock + kBlock / 2));
  EXPECT_EQ(engine->stats().hits_ready, 1u);
}

TEST(PrefetchEngine, OwnFlushDropsABufferPrefetchedWhileTheBytesWereDirty) {
  // After the fsync no dirty byte is left to lay over the tag-1 buffer, so
  // the flush itself must drop it.
  pfs::PfsParams params;
  params.write_tokens = true;
  Testbed tb(4, 4, params);
  tb.fs.create("f", tb.fs.default_attrs());
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  std::vector<std::byte> got(kBlock);
  run_task(tb.sim, dirty_half_then_prefetch(tb, /*flush=*/true, got));
  const std::span<const std::byte> half(got);
  EXPECT_TRUE(check_pattern(half.first(kBlock / 2), 2, kBlock));
  EXPECT_TRUE(check_pattern(half.subspan(kBlock / 2), 1, kBlock + kBlock / 2));
  EXPECT_EQ(engine->stats().hits_ready, 0u);
  EXPECT_EQ(engine->stats().stale_discarded, 1u);
}

TEST(PrefetchEngine, CloseFreesBuffersAndCountsWaste) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  auto engine = attach_prefetcher(*tb.clients[0], PrefetchConfig{});
  int fd_copy = -1;
  run_task(tb.sim, [](Testbed& t, PrefetchEngine& eng, int& fdout) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    fdout = fd;
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    EXPECT_EQ(eng.resident_buffers(fd), 1u);
    // Close while the prefetch may still be in flight: must not crash and
    // must free the list.
    t.clients[0]->close(fd);
    EXPECT_EQ(eng.resident_buffers(fd), 0u);
  }(tb, *engine, fd_copy));
  EXPECT_EQ(engine->stats().wasted, 1u);
}

TEST(PrefetchEngine, DepthKeepsMultipleBuffersAhead) {
  Testbed tb(1, 8);
  tb.populate("f", 4 * 1024 * 1024);
  PrefetchConfig cfg;
  cfg.depth = 4;
  auto engine = attach_prefetcher(*tb.clients[0], cfg);
  run_task(tb.sim, [](Testbed& t, PrefetchEngine& eng) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    EXPECT_EQ(eng.resident_buffers(fd), 4u);
    co_await t.sim.delay(1.0);
    co_await t.clients[0]->read(fd, buf);  // hit; engine tops back up to 4
    EXPECT_EQ(eng.resident_buffers(fd), 4u);
    t.clients[0]->close(fd);
  }(tb, *engine));
  EXPECT_GE(engine->stats().issued, 5u);
}

TEST(PrefetchEngine, DisabledEngineIsInert) {
  Testbed tb(1, 8);
  tb.populate("f", 1024 * 1024);
  PrefetchConfig cfg;
  cfg.enabled = false;
  auto engine = attach_prefetcher(*tb.clients[0], cfg);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    co_await t.clients[0]->read(fd, buf);
    co_await t.clients[0]->read(fd, buf);
    t.clients[0]->close(fd);
  }(tb));
  EXPECT_EQ(engine->stats().issued, 0u);
  EXPECT_EQ(engine->stats().misses, 0u);
}

TEST(PrefetchEngine, BalancedWorkloadFasterWithPrefetching) {
  // The paper's headline: with compute between reads, prefetching overlaps
  // I/O with computation and cuts elapsed time.
  auto run_one = [&](bool prefetch) {
    Testbed tb(1, 8);
    tb.populate("f", 2 * 1024 * 1024);
    PrefetchConfig cfg;
    cfg.enabled = prefetch;
    auto engine = attach_prefetcher(*tb.clients[0], cfg);
    SimTime elapsed = 0;
    run_task(tb.sim, [](Testbed& t, SimTime& out) -> Task<void> {
      const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
      std::vector<std::byte> buf(128 * 1024);
      const SimTime t0 = t.sim.now();
      // Compute phase comparable to the read access time, the regime where
      // overlap pays off (paper Fig 4).
      for (int i = 0; i < 16; ++i) {
        co_await t.clients[0]->read(fd, buf);
        co_await t.sim.delay(0.02);  // "computation"
      }
      out = t.sim.now() - t0;
      t.clients[0]->close(fd);
    }(tb, elapsed));
    return elapsed;
  };
  const SimTime with = run_one(true);
  const SimTime without = run_one(false);
  EXPECT_LT(with, without * 0.85);  // solid speedup expected
}

TEST(PrefetchEngine, NoComputeSmallRequestsPrefetchIsNotFaster) {
  // Table 1/3 shape: with no delay between requests, prefetching adds copy
  // + issue overhead and cannot win.
  auto run_one = [&](bool prefetch) {
    Testbed tb(1, 8);
    tb.populate("f", 1024 * 1024);
    PrefetchConfig cfg;
    cfg.enabled = prefetch;
    auto engine = attach_prefetcher(*tb.clients[0], cfg);
    SimTime elapsed = 0;
    run_task(tb.sim, [](Testbed& t, SimTime& out) -> Task<void> {
      const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
      std::vector<std::byte> buf(64 * 1024);
      const SimTime t0 = t.sim.now();
      for (int i = 0; i < 16; ++i) co_await t.clients[0]->read(fd, buf);
      out = t.sim.now() - t0;
      t.clients[0]->close(fd);
    }(tb, elapsed));
    return elapsed;
  };
  EXPECT_GE(run_one(true), run_one(false) * 0.98);
}

}  // namespace
}  // namespace ppfs::prefetch
