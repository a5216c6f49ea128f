// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Unit tests for the UFS substrate: content store and arena, allocator, inode table,
// buffer cache, and the Ufs read/write paths (buffered + fast path +
// coalescing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/buffer_cache.hpp"
#include "ufs/inode.hpp"
#include "ufs/strided_span.hpp"
#include "ufs/ufs.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ppfs::ufs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;

constexpr auto is_zero = [](std::byte b) { return b == std::byte{0}; };

// Ten positions in runs of 4 bytes every 10, the first run skewed by 1:
// positions 0-2 at buf[0, 3), 3-6 at buf[9, 13), 7-9 at buf[19, 22).
constexpr ByteCount kViewSize = 10, kViewSkew = 1, kViewRun = 4, kViewStride = 10;
const std::vector<std::ptrdiff_t> kViewAddrs{0, 1, 2, 9, 10, 11, 12, 19, 20, 21};

TEST(StridedSpan, PositionsMapToRunsAtTheStride) {
  std::vector<std::byte> buf(30);
  const OutBytes v(buf.data(), kViewSize, kViewSkew, kViewRun, kViewStride);
  ASSERT_EQ(v.size(), kViewSize);
  for (ByteCount p = 0; p < kViewSize; ++p) EXPECT_EQ(v.at(p) - buf.data(), kViewAddrs[p]);
  std::vector<std::pair<std::ptrdiff_t, ByteCount>> runs;
  v.for_each_run([&](std::byte* p, ByteCount n) { runs.emplace_back(p - buf.data(), n); });
  EXPECT_EQ(runs, (std::vector<std::pair<std::ptrdiff_t, ByteCount>>{{0, 3}, {9, 4}, {19, 3}}));
  // A subspan keeps the mapping, from any position.
  for (ByteCount pos = 0; pos < kViewSize; ++pos) {
    const OutBytes sub = v.subspan(pos, kViewSize - pos);
    for (ByteCount q = 0; q < sub.size(); ++q) EXPECT_EQ(sub.at(q), v.at(pos + q));
  }
}

TEST(StridedSpan, CopiesMoveBytesInPositionOrderAndLeaveTheGaps) {
  std::vector<std::byte> buf(30, std::byte{0xee});
  const OutBytes v(buf.data(), kViewSize, kViewSkew, kViewRun, kViewStride);
  const auto src = make_pattern(1, 0, kViewSize);
  v.copy_from(src.data());
  std::vector<std::byte> back(kViewSize);
  InBytes(v).copy_to(back.data());
  EXPECT_EQ(back, src);
  v.subspan(2, 3).fill_zero();  // positions 2-4: buf[2], buf[9], buf[10]
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const auto at =
        std::find(kViewAddrs.begin(), kViewAddrs.end(), static_cast<std::ptrdiff_t>(i));
    if (at == kViewAddrs.end()) {
      EXPECT_EQ(buf[i], std::byte{0xee}) << "gap byte " << i << " was written";
      continue;
    }
    const auto p = static_cast<std::size_t>(at - kViewAddrs.begin());
    EXPECT_EQ(buf[i], p >= 2 && p <= 4 ? std::byte{0} : src[p]) << "position " << p;
  }
}

TEST(StridedSpan, ASpanOrAViewInsideOneRunIsOneRun) {
  std::vector<std::byte> buf(100);
  const OutBytes whole(buf);
  const OutBytes inside(buf.data() + 3, 5, /*skew=*/3, /*run=*/8, /*stride=*/64);
  for (const OutBytes& v : {whole, inside}) {
    int runs = 0;
    v.for_each_run([&](std::byte*, ByteCount n) {
      ++runs;
      EXPECT_EQ(n, v.size());
    });
    EXPECT_EQ(runs, 1);
    for (ByteCount p = 0; p < v.size(); ++p) EXPECT_EQ(v.at(p), v.at(0) + p);
  }
  EXPECT_EQ(whole.at(99), &buf[99]);
  EXPECT_EQ(inside.at(0), &buf[3]);
}

TEST(ContentStore, UnwrittenReadsAsZero) {
  ContentArena arena;
  ContentStore cs(arena, 64 * 1024);
  std::vector<std::byte> buf(100, std::byte{0xff});
  cs.read(12345, buf);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST(ContentStore, RoundTripsAcrossChunkBoundaries) {
  // Chunks of 1, 4 and 64 KiB, and of 3000 bytes, which does not divide a
  // slab: 5 MiB of unaligned writes crosses two slab ends at each size.
  for (const ByteCount chunk : {ByteCount{1024}, ByteCount{4096}, ByteCount{64 * 1024},
                                ByteCount{3000}}) {
    SCOPED_TRACE(chunk);
    ContentArena arena;
    ContentStore cs(arena, chunk);
    constexpr FileOffset kBase = 4000;
    constexpr ByteCount kTotal = 5ull << 20;
    constexpr ByteCount kPiece = 100'000;
    for (FileOffset off = 0; off < kTotal; off += kPiece) {
      cs.write(kBase + off, make_pattern(7, kBase + off, std::min(kPiece, kTotal - off)));
    }
    EXPECT_GE(arena.slab_count(), 3u);
    EXPECT_EQ(cs.chunk_count(), (kBase + kTotal + chunk - 1) / chunk - kBase / chunk);
    std::vector<std::byte> back(kTotal);
    cs.read(kBase, back);
    EXPECT_TRUE(check_pattern(back, 7, kBase));
  }
}

TEST(ContentStore, PartialWriteOfAFreshChunkLeavesTheRestZero) {
  // A chunk full of pattern bytes is discarded first, so its bytes would
  // show here if its memory came back as the fresh chunk unzeroed.
  ContentArena arena;
  ContentStore cs(arena, 4096);
  cs.write(8192, make_pattern(9, 8192, 4096));
  cs.discard(8192, 4096);
  const auto data = make_pattern(3, 1000, 2000);
  cs.write(1000, data);
  std::vector<std::byte> back(4096, std::byte{0x5a});
  cs.read(0, back);
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + 1000, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(1000, 2000), 3, 1000));
  EXPECT_TRUE(std::all_of(back.begin() + 3000, back.end(), is_zero));
}

TEST(ContentStore, OverlappingWritesLastWins) {
  ContentArena arena;
  ContentStore cs(arena, 1024);
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

// A write streams every whole 64-byte line of its destination and copies
// the bytes before the first line and after the last. Each case below
// writes into chunks of its own and reads back the write plus a line on
// each side at once, so a byte written outside the write shows even where a
// later write would have covered it. A stored chunk holds kOld before the
// write; a fresh chunk reads zero outside it.
constexpr ByteCount kLine = 64;
constexpr std::byte kOld{0x11};

// Never kOld or zero, and different at neighbouring positions, so a
// missing, shifted or extra byte reads wrong.
std::vector<std::byte> streamed_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(0x80 | (i % 127));
  return v;
}

// Writes `data` at `at` (with at % chunk >= kLine) into chunks that hold
// kOld when `stored`, then checks [at - kLine, at + size + kLine).
void check_streamed_write(ContentStore& cs, bool stored, FileOffset at, InBytes data,
                          std::span<const std::byte> want) {
  const FileOffset first = at / cs.chunk_bytes() * cs.chunk_bytes();
  const FileOffset last = (at + data.size() + kLine - 1) / cs.chunk_bytes() * cs.chunk_bytes();
  if (stored) {
    cs.write(first, std::vector<std::byte>(last + cs.chunk_bytes() - first, kOld));
  }
  cs.write(at, data);
  std::vector<std::byte> back(data.size() + 2 * kLine, std::byte{0x5a});
  cs.read(at - kLine, back);
  const std::byte old = stored ? kOld : std::byte{0};
  for (std::size_t i = 0; i < back.size(); ++i) {
    const bool inside = i >= kLine && i < kLine + data.size();
    ASSERT_EQ(back[i], inside ? want[i - kLine] : old)
        << "byte " << static_cast<std::ptrdiff_t>(i) - static_cast<std::ptrdiff_t>(kLine)
        << " of a " << data.size() << "-byte write";
  }
}

TEST(ContentStore, StreamedWriteLandsExactlyWhereAskedAtEveryLineOffset) {
  // Every destination offset 0-63 into a line, each length below, into a
  // stored chunk and a fresh one: 1,920 writes, one chunk each. The source
  // runs on past the write, so copying a byte too many shows too.
  constexpr ByteCount kChunk = 4096;
  const ByteCount lengths[] = {0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000};
  const auto src = streamed_bytes(2048);
  for (const bool stored : {true, false}) {
    ContentArena arena;
    ContentStore cs(arena, kChunk);
    FileOffset chunk_at = 0;
    for (ByteCount shift = 0; shift < kLine; ++shift) {
      for (const ByteCount len : lengths) {
        SCOPED_TRACE(testing::Message() << (stored ? "stored" : "fresh") << " chunk, offset "
                                        << shift << " into a line, length " << len);
        const auto data = std::span(src).first(len);
        ASSERT_NO_FATAL_FAILURE(
            check_streamed_write(cs, stored, chunk_at + 2 * kLine + shift, data, data));
        chunk_at += kChunk;
      }
    }
  }
}

TEST(ContentStore, StreamedWriteFromShortStridedRunsLandsExactlyWhereAsked) {
  // A source view whose runs are 40 bytes (shorter than a line) or 3000,
  // neither a multiple of 16, with a skewed first run and a cut last one:
  // each run starts at a new destination alignment. Every offset 0-63 into
  // a line, into stored chunks and fresh ones.
  constexpr ByteCount kChunk = 16 * 1024;
  for (const ByteCount run : {ByteCount{40}, ByteCount{3000}}) {
    const ByteCount stride = run + 24, skew = 7, size = 5 * run - 11;
    const auto buf = streamed_bytes(static_cast<std::size_t>(5 * stride));
    const InBytes view(buf.data(), size, skew, run, stride);
    std::vector<std::byte> want(size);
    view.copy_to(want.data());
    for (const bool stored : {true, false}) {
      ContentArena arena;
      ContentStore cs(arena, kChunk);
      for (ByteCount shift = 0; shift < kLine; ++shift) {
        SCOPED_TRACE(testing::Message() << run << "-byte runs, " << (stored ? "stored" : "fresh")
                                        << " chunk, offset " << shift << " into a line");
        ASSERT_NO_FATAL_FAILURE(
            check_streamed_write(cs, stored, shift * kChunk + kLine + shift, view, want));
      }
    }
  }
}

TEST(ContentStore, ZeroWriteIntoAnAbsentChunkStoresNothing) {
  ContentArena arena;
  ContentStore cs(arena, 4096);
  cs.write(1000, std::vector<std::byte>(3 * 4096));
  EXPECT_EQ(cs.chunk_count(), 0u);
  EXPECT_EQ(arena.slab_count(), 0u);
  std::vector<std::byte> back(5 * 4096, std::byte{0x5a});
  cs.read(0, back);
  EXPECT_TRUE(std::all_of(back.begin(), back.end(), is_zero));
}

TEST(ContentStore, ZeroWriteOverAStoredChunkOverwritesIt) {
  ContentArena arena;
  ContentStore cs(arena, 4096);
  cs.write(0, make_pattern(4, 0, 4096));
  cs.write(100, std::vector<std::byte>(200));
  EXPECT_EQ(cs.chunk_count(), 1u);
  std::vector<std::byte> back(4096);
  cs.read(0, back);
  EXPECT_TRUE(check_pattern(std::span(back).subspan(0, 100), 4, 0));
  EXPECT_TRUE(std::all_of(back.begin() + 100, back.begin() + 300, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(300), 4, 300));
}

TEST(ContentStore, ZerosThenPatternInOneChunkRoundTrip) {
  ContentArena arena;
  ContentStore cs(arena, 4096);
  // Two writes: the zeros store nothing, the pattern then makes the chunk.
  cs.write(0, std::vector<std::byte>(2048));
  cs.write(2048, make_pattern(5, 2048, 2048));
  // One write each, zeros but for one byte past the first word: inside a
  // 64-byte block, then in the ragged tail after the last whole block.
  std::vector<std::byte> one_set(4000);
  one_set[100] = std::byte{0x11};
  cs.write(4096, one_set);
  one_set[100] = std::byte{0};
  one_set.back() = std::byte{0x22};
  cs.write(2 * 4096, one_set);
  EXPECT_EQ(cs.chunk_count(), 3u);
  std::vector<std::byte> back(3 * 4096, std::byte{0x5a});
  cs.read(0, back);
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + 2048, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(2048, 2048), 5, 2048));
  EXPECT_EQ(std::count_if(back.begin() + 4096, back.end(), is_zero), 2 * 4096 - 2);
  EXPECT_EQ(back[4096 + 100], std::byte{0x11});
  EXPECT_EQ(back[2 * 4096 + 3999], std::byte{0x22});
}

TEST(ContentStore, DiscardDropsWholeChunksAndZeroesPartlyCoveredOnes) {
  ContentArena arena;
  ContentStore cs(arena, 64 * 1024);
  constexpr ByteCount kChunk = 64 * 1024;
  constexpr ByteCount kChunks = 64;
  cs.write(0, make_pattern(8, 0, kChunks * kChunk));
  // Chunk 0 loses [100, 300); chunks 1..62 leave; chunk 63 keeps its tail.
  cs.discard(100, 200);
  cs.discard(kChunk, (kChunks - 2) * kChunk + 5000);
  EXPECT_EQ(cs.chunk_count(), 2u);
  std::vector<std::byte> back(kChunks * kChunk, std::byte{0x5a});
  cs.read(0, back);
  EXPECT_TRUE(check_pattern(std::span(back).subspan(0, 100), 8, 0));
  EXPECT_TRUE(std::all_of(back.begin() + 100, back.begin() + 300, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(300, kChunk - 300), 8, 300));
  const ByteCount last = (kChunks - 1) * kChunk;
  EXPECT_TRUE(std::all_of(back.begin() + kChunk, back.begin() + last + 5000, is_zero));
  EXPECT_TRUE(check_pattern(std::span(back).subspan(last + 5000), 8, last + 5000));
}

TEST(ContentArena, StoresSharingAnArenaKeepTheirOwnBytes) {
  // Three stores take chunks in turn, so each one's chunks are spread over
  // every slab and neighbour other stores' chunks across slab ends.
  ContentArena arena;
  constexpr ByteCount kChunk = 64 * 1024;
  constexpr int kRounds = 40;  // 120 chunks: four slabs
  ContentStore s0(arena, kChunk), s1(arena, kChunk), s2(arena, kChunk);
  ContentStore* all[] = {&s0, &s1, &s2};
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      const FileOffset off = static_cast<FileOffset>(r) * kChunk;
      all[s]->write(off, make_pattern(20 + s, off, kChunk));
    }
  }
  EXPECT_EQ(arena.slab_count(), 4u);
  std::vector<std::byte> back(kRounds * kChunk);
  for (std::uint64_t s = 0; s < 3; ++s) {
    all[s]->read(0, back);
    EXPECT_TRUE(check_pattern(back, 20 + s, 0)) << "store " << s;
  }
}

// The 2 MiB slab a chunk lies in (slabs are 2 MiB-aligned).
std::uintptr_t slab_of(const std::byte* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~std::uintptr_t{ContentArena::kSlabBytes - 1};
}

// Fills `slabs` whole slabs of a fresh arena with non-zero bytes, destroys
// it, and returns its slabs, which now sit on this thread's free list. Each
// test makes its own: ctest runs every case in a process of its own, where
// the list starts empty.
std::vector<std::uintptr_t> fill_and_destroy_an_arena(std::size_t slabs) {
  constexpr std::size_t kPiece = 64 * 1024;  // divides a slab: every byte is written
  std::vector<std::uintptr_t> held;
  ContentArena arena;
  for (std::size_t k = 0; k < slabs * (ContentArena::kSlabBytes / kPiece); ++k) {
    std::byte* p = arena.allocate(kPiece);
    std::memset(p, 0xa5, kPiece);
    if (held.empty() || held.back() != slab_of(p)) held.push_back(slab_of(p));
  }
  EXPECT_EQ(arena.slab_count(), slabs);
  return held;
}

TEST(ContentStore, FreshChunkOnAReusedSlabReadsZeroOutsideItsFirstWrite) {
  // A's slabs hold 0xa5 everywhere. B's chunks come from them, and each
  // chunk's first write covers only its start, middle or end: the rest must
  // read back as zero. 2.5 MiB of chunks crosses a slab end at each size,
  // and 3000-byte chunks leave a ragged slab tail and gaps of A's bytes.
  for (const ByteCount chunk : {ByteCount{4096}, ByteCount{64 * 1024}, ByteCount{3000}}) {
    SCOPED_TRACE(chunk);
    const std::vector<std::uintptr_t> held = fill_and_destroy_an_arena(3);
    ContentArena arena;
    ContentStore cs(arena, chunk);
    const ByteCount len = chunk / 4;
    const std::uint64_t chunks = (5 * ContentArena::kSlabBytes / 4) / chunk;
    // Chunk c's first write: at its start, in its middle or at its end.
    const auto first_write_at = [&](std::uint64_t c) -> ByteCount {
      return c % 3 == 0 ? 0 : c % 3 == 1 ? chunk / 3 : chunk - len;
    };
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const FileOffset off = c * chunk + first_write_at(c);
      cs.write(off, make_pattern(c, off, len));
    }
    ASSERT_EQ(cs.chunk_count(), chunks);
    EXPECT_EQ(arena.slab_count(), 2u);
    std::vector<std::byte> back(chunk);
    for (std::uint64_t c = 0; c < chunks; ++c) {
      cs.read(c * chunk, back);
      const ByteCount at = first_write_at(c);
      ASSERT_TRUE(std::all_of(back.begin(), back.begin() + at, is_zero)) << "chunk " << c;
      ASSERT_TRUE(check_pattern(std::span(back).subspan(at, len), c, c * chunk + at))
          << "chunk " << c;
      ASSERT_TRUE(std::all_of(back.begin() + at + len, back.end(), is_zero)) << "chunk " << c;
    }
    // B's chunks lay in A's slabs, or this proved nothing.
    EXPECT_TRUE(std::find(held.begin(), held.end(), slab_of(arena.allocate(1))) != held.end());
  }
}

TEST(ContentArena, TheNextArenaOnAThreadTakesADeadArenasSlabs) {
  const std::vector<std::uintptr_t> held = fill_and_destroy_an_arena(3);
  ASSERT_EQ(held.size(), 3u);
  const auto was_held = [&](const std::byte* p) {
    return std::find(held.begin(), held.end(), slab_of(p)) != held.end();
  };
  // Another thread's arena takes none of them: each thread has its own list.
  const std::byte* elsewhere = nullptr;
  std::thread([&elsewhere] {
    ContentArena arena;
    elsewhere = arena.allocate(4096);
  }).join();
  EXPECT_FALSE(was_held(elsewhere));
  // This thread's next arena maps nothing while the list holds a slab, so
  // its first three slabs are A's.
  ContentArena arena;
  EXPECT_TRUE(was_held(arena.allocate(4096)));
  for (int k = 1; k < 3 * 32; ++k) EXPECT_TRUE(was_held(arena.allocate(64 * 1024))) << k;
  EXPECT_EQ(arena.slab_count(), 3u);
  EXPECT_FALSE(was_held(arena.allocate(64 * 1024)));
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ContentArena, PooledSlabIsPoisonedUntilHandedOut) {
  std::byte* chunk = nullptr;
  {
    ContentArena dead;
    chunk = dead.allocate(4096);
    std::memset(chunk, 0xa5, 4096);
  }
  // The slab's first word links the list; every byte past it is poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(chunk + sizeof(void*)));
  EXPECT_TRUE(__asan_address_is_poisoned(chunk + 4095));
  EXPECT_TRUE(__asan_address_is_poisoned(chunk + ContentArena::kSlabBytes - 1));
  ContentArena arena;
  std::byte* again = arena.allocate(4096);
  ASSERT_EQ(again, chunk);
  EXPECT_FALSE(__asan_address_is_poisoned(again + sizeof(void*)));
  EXPECT_FALSE(__asan_address_is_poisoned(again + 4095));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 4096));
}

TEST(ContentStoreDeathTest, WriteIntoAPooledSlabIsReported) {
  // ASan does not check streaming stores, so a write into poisoned chunk
  // memory must go by memcpy, whose check reports it. The whole-chunk
  // write below is all lines: no head or tail would report it otherwise.
  auto arena = std::make_unique<ContentArena>();
  ContentStore cs(*arena, 4096);
  cs.write(0, make_pattern(1, 0, 4096));
  arena.reset();  // the chunk's slab goes onto the thread's list, poisoned
  const auto again = make_pattern(2, 0, 4096);
  EXPECT_DEATH(cs.write(0, again), "use-after-poison");
}

TEST(ContentArena, PoisonsTheBytesPastTheLastChunk) {
  ContentArena arena;
  arena.allocate(4096);
  std::byte* last = arena.allocate(1000);
  EXPECT_FALSE(__asan_address_is_poisoned(last));
  EXPECT_FALSE(__asan_address_is_poisoned(last + 999));
  EXPECT_TRUE(__asan_address_is_poisoned(last + 1000));
  EXPECT_TRUE(__asan_address_is_poisoned(last + 64 * 1024));
}
#endif

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
  ContentArena arena;
  ContentStore content{arena, 4096};
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
  ContentArena arena;
  ContentStore content{arena, 64 * 1024};
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

TEST(Ufs, RemoveDropsTheDeletedFilesBytes) {
  // b reuses a's freed block. Its partial write fills the rest of that
  // block from the store, so a's bytes would show through b's hole.
  UfsFixture f;
  const auto bs = f.fs.params().block_bytes;
  const std::vector<std::byte> old_bytes(bs, std::byte{0xab});
  const auto patch = make_pattern(21, 5000, 100);
  std::vector<std::byte> back(1000, std::byte{0x5a});
  run_task(f.sim, [](UfsFixture& fx, std::span<const std::byte> a, std::span<const std::byte> p,
                     std::span<std::byte> out) -> Task<void> {
    co_await fx.fs.write(fx.fs.create("a"), 0, a, /*fastpath=*/true);
    fx.fs.remove("a");
    const InodeNum b = fx.fs.create("b");
    co_await fx.fs.write(b, 5000, p, /*fastpath=*/false);
    co_await fx.fs.read(b, 0, out.size(), out, /*fastpath=*/false);
  }(f, old_bytes, patch, back));
  EXPECT_TRUE(std::all_of(back.begin(), back.end(), is_zero));
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
  ContentArena arena;
  ContentStore content(arena, 64 * 1024);
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
  ContentArena arena;
  ContentStore content(arena, 64 * 1024);
  UfsParams p;
  p.block_bytes = 1000;  // not a multiple of 512
  EXPECT_THROW(Ufs(sim, "bad", dev, content, nullptr, p), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::ufs
