// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Tests for the prefetch engine — the paper's contribution.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
  explicit Testbed(int ncompute = 8, int nio = 8)
      : machine(sim, hw::MachineConfig::paragon(ncompute, nio)),
        fs(machine, pfs::PfsParams{}) {
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
