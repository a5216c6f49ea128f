// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Unit tests for the UFS substrate: content store, allocator, inode table,
// buffer cache, and the Ufs read/write paths (buffered + fast path +
// coalescing).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/buffer_cache.hpp"
#include "ufs/inode.hpp"
#include "ufs/ufs.hpp"

namespace ppfs::ufs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;

TEST(ContentStore, UnwrittenReadsAsZero) {
  ContentStore cs;
  std::vector<std::byte> buf(100, std::byte{0xff});
  cs.read(12345, buf);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST(ContentStore, RoundTripsAcrossChunkBoundaries) {
  ContentStore cs(/*chunk_bytes=*/4096);
  auto data = make_pattern(7, 4000, 8192);  // spans 3 chunks
  cs.write(4000, data);
  std::vector<std::byte> back(8192);
  cs.read(4000, back);
  EXPECT_TRUE(check_pattern(back, 7, 4000));
  EXPECT_GE(cs.chunk_count(), 2u);
}

TEST(ContentStore, PartialWriteOfAFreshChunkLeavesTheRestZero) {
  // A fresh chunk is allocated uninitialised and only the bytes the first
  // write leaves uncovered are zeroed. A dirty block of the same size is
  // freed first, so stale heap bytes would show if that zeroing were lost.
  {
    std::vector<std::byte> junk(4096, std::byte{0xff});
    ASSERT_EQ(junk.back(), std::byte{0xff});
  }
  ContentStore cs(4096);
  const auto data = make_pattern(3, 1000, 2000);
  cs.write(1000, data);
  std::vector<std::byte> back(4096, std::byte{0x5a});
  cs.read(0, back);
  const auto is_zero = [](std::byte b) { return b == std::byte{0}; };
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + 1000, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(1000, 2000), 3, 1000));
  EXPECT_TRUE(std::all_of(back.begin() + 3000, back.end(), is_zero));
}

TEST(ContentStore, OverlappingWritesLastWins) {
  ContentStore cs(1024);
  auto a = make_pattern(1, 0, 2048);
  auto b = make_pattern(2, 512, 1024);
  cs.write(0, a);
  cs.write(512, b);
  std::vector<std::byte> back(2048);
  cs.read(0, back);
  EXPECT_TRUE(check_pattern(std::span(back).subspan(0, 512), 1, 0));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(512, 1024), 2, 512));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(1536, 512), 1, 1536));
}

TEST(BlockAllocator, AllocatesDistinctBlocks) {
  BlockAllocator a(10);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 10; ++i) {
    auto b = a.allocate();
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(seen[*b]);
    seen[*b] = true;
  }
  EXPECT_FALSE(a.allocate().has_value());  // full
}

TEST(BlockAllocator, HintGivesContiguity) {
  BlockAllocator a(100);
  auto first = a.allocate(0);
  ASSERT_TRUE(first);
  std::uint64_t prev = *first;
  for (int i = 0; i < 50; ++i) {
    auto b = a.allocate(prev + 1);
    ASSERT_TRUE(b);
    EXPECT_EQ(*b, prev + 1);
    prev = *b;
  }
}

TEST(BlockAllocator, HintWrapsAround) {
  BlockAllocator a(4);
  ASSERT_TRUE(a.allocate(0));  // 0
  ASSERT_TRUE(a.allocate(1));  // 1
  ASSERT_TRUE(a.allocate(2));  // 2
  auto b = a.allocate(3);
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, 3u);
  a.free(1);
  auto c = a.allocate(3);  // wraps to find 1
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, 1u);
}

TEST(BlockAllocator, DoubleFreeThrows) {
  BlockAllocator a(4);
  auto b = a.allocate();
  a.free(*b);
  EXPECT_THROW(a.free(*b), std::logic_error);
}

TEST(InodeTable, CreateLookupRemove) {
  InodeTable t;
  auto ino = t.create("data");
  EXPECT_NE(ino, kInvalidInode);
  EXPECT_EQ(t.lookup("data"), ino);
  EXPECT_EQ(t.lookup("absent"), kInvalidInode);
  EXPECT_THROW(t.create("data"), std::invalid_argument);
  t.remove("data");
  EXPECT_EQ(t.lookup("data"), kInvalidInode);
  EXPECT_THROW(t.remove("data"), std::invalid_argument);
}

// --- BufferCache ---

struct CacheFixture {
  Simulation sim;
  ContentStore content{4096};
  std::uint64_t fills = 0, flushes = 0;
  BufferCache cache{
      sim, 4, 4096,
      [this](std::uint64_t phys, std::span<std::byte> dest) -> Task<void> {
        ++fills;
        co_await sim.delay(0.01);  // pretend disk latency
        content.read(phys * 4096, dest);
      },
      [this](std::uint64_t phys, std::span<const std::byte> src) -> Task<void> {
        ++flushes;
        content.write(phys * 4096, src);
        co_await sim.delay(0.01);
      }};
};

TEST(BufferCache, MissThenHit) {
  CacheFixture f;
  f.content.write(0, make_pattern(3, 0, 4096));
  std::vector<std::byte> buf(4096);
  run_task(f.sim, [](CacheFixture& fx, std::vector<std::byte>& out) -> Task<void> {
    co_await fx.cache.read(0, 0, out);
    co_await fx.cache.read(0, 0, out);
  }(f, buf));
  EXPECT_EQ(f.fills, 1u);
  EXPECT_EQ(f.cache.hits(), 1u);
  EXPECT_EQ(f.cache.misses(), 1u);
  EXPECT_TRUE(check_pattern(buf, 3, 0));
}

TEST(BufferCache, ConcurrentMissesShareOneFill) {
  CacheFixture f;
  f.content.write(0, make_pattern(5, 0, 4096));
  std::vector<std::byte> b1(4096), b2(4096);
  f.sim.spawn([](CacheFixture& fx, std::vector<std::byte>& out) -> Task<void> {
    co_await fx.cache.read(0, 0, out);
  }(f, b1));
  f.sim.spawn([](CacheFixture& fx, std::vector<std::byte>& out) -> Task<void> {
    co_await fx.cache.read(0, 0, out);
  }(f, b2));
  f.sim.run();
  EXPECT_EQ(f.fills, 1u);
  EXPECT_EQ(f.cache.fill_waits(), 1u);
  EXPECT_TRUE(check_pattern(b1, 5, 0));
  EXPECT_TRUE(check_pattern(b2, 5, 0));
}

TEST(BufferCache, LruEvictsOldest) {
  CacheFixture f;
  std::vector<std::byte> buf(4096);
  run_task(f.sim, [](CacheFixture& fx, std::vector<std::byte>& out) -> Task<void> {
    for (std::uint64_t b = 0; b < 5; ++b) co_await fx.cache.read(b, 0, out);  // cap 4
  }(f, buf));
  EXPECT_EQ(f.cache.evictions(), 1u);
  EXPECT_FALSE(f.cache.contains(0));  // oldest gone
  EXPECT_TRUE(f.cache.contains(4));
}

TEST(BufferCache, TouchKeepsHotBlockResident) {
  CacheFixture f;
  std::vector<std::byte> buf(4096);
  run_task(f.sim, [](CacheFixture& fx, std::vector<std::byte>& out) -> Task<void> {
    for (std::uint64_t b = 0; b < 4; ++b) co_await fx.cache.read(b, 0, out);
    co_await fx.cache.read(0, 0, out);  // touch 0: now 1 is LRU
    co_await fx.cache.read(9, 0, out);  // evicts 1
  }(f, buf));
  EXPECT_TRUE(f.cache.contains(0));
  EXPECT_FALSE(f.cache.contains(1));
}

TEST(BufferCache, PartialWriteMergesWithOldContents) {
  CacheFixture f;
  f.content.write(0, make_pattern(1, 0, 4096));
  auto patch = make_pattern(2, 100, 50);
  std::vector<std::byte> buf(4096);
  run_task(f.sim, [](CacheFixture& fx, std::span<const std::byte> p,
                     std::vector<std::byte>& out) -> Task<void> {
    co_await fx.cache.write(0, 100, p);
    co_await fx.cache.read(0, 0, out);
  }(f, patch, buf));
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).subspan(0, 100), 1, 0));
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).subspan(100, 50), 2, 100));
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).subspan(150, 4096 - 150), 1, 150));
  EXPECT_GE(f.flushes, 1u);
}

TEST(BufferCache, FullBlockOverwriteSkipsFill) {
  CacheFixture f;
  auto block = make_pattern(9, 0, 4096);
  run_task(f.sim, [](CacheFixture& fx, std::span<const std::byte> b) -> Task<void> {
    co_await fx.cache.write(0, 0, b);
  }(f, block));
  EXPECT_EQ(f.fills, 0u);
  EXPECT_EQ(f.flushes, 1u);
  std::vector<std::byte> back(4096);
  f.content.read(0, back);
  EXPECT_TRUE(check_pattern(back, 9, 0));
}

// --- Ufs ---

struct UfsFixture {
  Simulation sim;
  NullBlockDevice dev{sim, 1ull << 30};
  ContentStore content{64 * 1024};
  Ufs fs{sim, "ufs0", dev, content, nullptr, UfsParams{}};
};

TEST(Ufs, WriteThenReadBackBuffered) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(11, 0, 200'000);  // ~3 blocks, unaligned tail
  std::vector<std::byte> back(200'000);
  sim::ByteCount got = 0;
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out, sim::ByteCount& n) -> Task<void> {
    co_await fx.fs.write(i, 0, in, /*fastpath=*/false);
    n = co_await fx.fs.read(i, 0, out.size(), out, /*fastpath=*/false);
  }(f, ino, data, back, got));
  EXPECT_EQ(got, 200'000u);
  EXPECT_TRUE(check_pattern(back, 11, 0));
  EXPECT_EQ(f.fs.file_size(ino), 200'000u);
}

TEST(Ufs, FastPathRoundTripAligned) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  const auto bs = f.fs.params().block_bytes;
  auto data = make_pattern(12, 0, 4 * bs);
  std::vector<std::byte> back(4 * bs);
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out) -> Task<void> {
    co_await fx.fs.write(i, 0, in, /*fastpath=*/true);
    co_await fx.fs.read(i, 0, out.size(), out, /*fastpath=*/true);
  }(f, ino, data, back));
  EXPECT_TRUE(check_pattern(back, 12, 0));
  EXPECT_EQ(f.fs.stats().fastpath_reads, 1u);
  EXPECT_EQ(f.fs.stats().fastpath_writes, 1u);
  // Contiguous allocation + coalescing: the whole 4-block read is one run.
  EXPECT_EQ(f.fs.stats().disk_runs, 2u);  // one write run + one read run
  EXPECT_EQ(f.fs.cache().resident_blocks(), 0u);  // fast path bypasses cache
}

TEST(Ufs, UnalignedFastPathDegradesToBuffered) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(13, 0, 100'000);
  std::vector<std::byte> back(50'000);
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out) -> Task<void> {
    co_await fx.fs.write(i, 0, in, false);
    co_await fx.fs.read(i, 1000, out.size(), out, /*fastpath=*/true);  // unaligned
  }(f, ino, data, back));
  EXPECT_TRUE(check_pattern(back, 13, 1000));
  EXPECT_EQ(f.fs.stats().fastpath_reads, 0u);
  EXPECT_GT(f.fs.cache().resident_blocks(), 0u);
}

TEST(Ufs, ReadPastEofClamps) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(14, 0, 1000);
  std::vector<std::byte> back(5000);
  sim::ByteCount got = 99;
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out, sim::ByteCount& n) -> Task<void> {
    co_await fx.fs.write(i, 0, in, false);
    n = co_await fx.fs.read(i, 500, 5000, out, false);
  }(f, ino, data, back, got));
  EXPECT_EQ(got, 500u);
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(back).subspan(0, 500), 14, 500));
}

TEST(Ufs, ReadAtEofReturnsZero) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(15, 0, 1000);
  std::vector<std::byte> back(100);
  sim::ByteCount got = 99;
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out, sim::ByteCount& n) -> Task<void> {
    co_await fx.fs.write(i, 0, in, false);
    n = co_await fx.fs.read(i, 1000, 100, out, false);
  }(f, ino, data, back, got));
  EXPECT_EQ(got, 0u);
}

TEST(Ufs, SparseWriteExtendsWithZeros) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(16, 200'000, 1000);
  std::vector<std::byte> back(1000);
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in,
                     std::span<std::byte> out) -> Task<void> {
    co_await fx.fs.write(i, 200'000, in, false);
    co_await fx.fs.read(i, 0, 1000, out, false);  // the hole
  }(f, ino, data, back));
  EXPECT_EQ(f.fs.file_size(ino), 201'000u);
  for (auto b : back) EXPECT_EQ(b, std::byte{0});
}

TEST(Ufs, RemoveFreesBlocksForReuse) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  auto data = make_pattern(17, 0, 10 * f.fs.params().block_bytes);
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await fx.fs.write(i, 0, in, true);
  }(f, ino, data));
  const auto free_before = f.fs.free_blocks();
  f.fs.remove("a");
  EXPECT_EQ(f.fs.free_blocks(), free_before + 10);
  EXPECT_EQ(f.fs.lookup("a"), kInvalidInode);
}

TEST(Ufs, CoalescingCountsMultiBlockRuns) {
  UfsFixture f;
  auto ino = f.fs.create("a");
  const auto bs = f.fs.params().block_bytes;
  auto data = make_pattern(18, 0, 8 * bs);
  run_task(f.sim, [](UfsFixture& fx, InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await fx.fs.write(i, 0, in, true);
    std::vector<std::byte> out(in.size());
    co_await fx.fs.read(i, 0, in.size(), out, true);
  }(f, ino, data));
  EXPECT_EQ(f.fs.stats().coalesced_blocks, 16u);  // 8 on write + 8 on read
  EXPECT_EQ(f.dev.ops(), 2u);                     // exactly one device op each way
}

TEST(Ufs, CoalescingDisabledIssuesPerBlockOps) {
  Simulation sim;
  NullBlockDevice dev(sim, 1ull << 30);
  ContentStore content(64 * 1024);
  UfsParams p;
  p.coalesce = false;
  Ufs fs(sim, "ufs0", dev, content, nullptr, p);
  auto ino = fs.create("a");
  auto data = make_pattern(19, 0, 4 * p.block_bytes);
  run_task(sim, [](Ufs& f, InodeNum i, std::span<const std::byte> in) -> Task<void> {
    co_await f.write(i, 0, in, true);
  }(fs, ino, data));
  EXPECT_EQ(dev.ops(), 4u);
}

TEST(Ufs, MisalignedBlockSizeRejected) {
  Simulation sim;
  NullBlockDevice dev(sim);
  ContentStore content;
  UfsParams p;
  p.block_bytes = 1000;  // not a multiple of 512
  EXPECT_THROW(Ufs(sim, "bad", dev, content, nullptr, p), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::ufs
