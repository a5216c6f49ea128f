// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Property-based tests (parameterized sweeps) over the core invariants:
// stripe-mapping algebra, UFS-vs-reference-model equivalence, end-to-end
// data integrity in every I/O mode with and without prefetching, and
// prefetch-engine resource bounds.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/stripe.hpp"
#include "prefetch/engine.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"
#include "workload/experiment.hpp"

namespace ppfs {
namespace {

using ppfs::test::run_task;
using sim::ByteCount;
using sim::FileOffset;
using sim::Rng;
using sim::Simulation;
using sim::Task;

// ---------------------------------------------------------------------
// Stripe layout algebra, swept over stripe units and group shapes.
// ---------------------------------------------------------------------

struct StripeCase {
  ByteCount stripe_unit;
  std::vector<int> group;
  const char* label;
};

class StripeLayoutProperty : public ::testing::TestWithParam<StripeCase> {};

TEST_P(StripeLayoutProperty, MapCoversExactlyAndContiguously) {
  const auto& p = GetParam();
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = p.stripe_unit;
  attrs.stripe_group = p.group;
  pfs::StripeLayout layout(attrs);

  Rng rng(0xace0fba5e + p.stripe_unit);
  for (int trial = 0; trial < 200; ++trial) {
    const FileOffset off = rng.uniform_int(0, 64 * p.stripe_unit);
    const ByteCount len = rng.uniform_int(1, 16 * p.stripe_unit);
    pfs::StripeExtents reqs;
    layout.map(off, len, reqs);

    ByteCount total = 0;
    std::map<FileOffset, ByteCount> file_cover;  // disjointness check
    for (const auto& r : reqs) {
      ASSERT_GE(r.group_slot, 0);
      ASSERT_LT(r.group_slot, attrs.group_size());
      EXPECT_EQ(r.io_index, attrs.stripe_group[r.group_slot]);

      // Pieces tile the request's local range contiguously and ascend in
      // file space.
      ByteCount piece_total = 0;
      FileOffset prev_file_end = 0;
      bool first = true;
      for (const auto& piece : r.pieces) {
        ASSERT_GT(piece.length, 0u);
        if (!first) {
          EXPECT_GE(piece.file_offset, prev_file_end);
        }
        prev_file_end = piece.file_offset + piece.length;
        first = false;
        piece_total += piece.length;
        // Every piece byte belongs to this slot per the ownership formula.
        EXPECT_EQ(layout.slot_of(piece.file_offset), r.group_slot);
        file_cover[piece.file_offset] = piece.length;
      }
      EXPECT_EQ(piece_total, r.length);
      // The local range starts exactly where the first piece maps.
      EXPECT_EQ(r.local_offset, layout.local_offset(r.pieces.front().file_offset));
      total += r.length;
    }
    EXPECT_EQ(total, len);

    // Pieces across all slots tile [off, off+len) exactly once.
    FileOffset cursor = off;
    for (const auto& [pos, plen] : file_cover) {
      EXPECT_EQ(pos, cursor);
      cursor += plen;
    }
    EXPECT_EQ(cursor, off + len);
  }
}

TEST_P(StripeLayoutProperty, LocalSizesMatchMappedBytes) {
  const auto& p = GetParam();
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = p.stripe_unit;
  attrs.stripe_group = p.group;
  pfs::StripeLayout layout(attrs);

  for (ByteCount fsize : std::vector<ByteCount>{1, p.stripe_unit - 1, p.stripe_unit,
                                                7 * p.stripe_unit + 13,
                                                64 * p.stripe_unit}) {
    auto sizes = layout.local_sizes(fsize);
    // Mapping the whole file and summing per slot must agree.
    pfs::StripeExtents reqs;
    layout.map(0, fsize, reqs);
    std::vector<ByteCount> mapped(attrs.group_size(), 0);
    for (const auto& r : reqs) mapped[r.group_slot] += r.length;
    for (int s = 0; s < attrs.group_size(); ++s) {
      EXPECT_EQ(sizes[s], mapped[s]) << "slot " << s << " fsize " << fsize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StripeLayoutProperty,
    ::testing::Values(
        StripeCase{64 * 1024, {0, 1, 2, 3, 4, 5, 6, 7}, "su64k_g8"},
        StripeCase{64 * 1024, {0}, "su64k_g1"},
        StripeCase{16 * 1024, {0, 1, 2}, "su16k_g3"},
        StripeCase{256 * 1024, {0, 1, 2, 3}, "su256k_g4"},
        StripeCase{1024 * 1024, {0, 1, 2, 3, 4, 5, 6, 7}, "su1m_g8"},
        StripeCase{64 * 1024, {0, 0, 0, 0, 0, 0, 0, 0}, "su64k_8way_on_1"},
        StripeCase{4096, {1, 0}, "su4k_reversed_g2"}),
    [](const ::testing::TestParamInfo<StripeCase>& pinfo) { return pinfo.param.label; });

// ---------------------------------------------------------------------
// UFS behaves exactly like a flat byte array, under random mixed
// workloads, across block sizes / cache sizes / coalescing settings.
// ---------------------------------------------------------------------

struct UfsCase {
  ByteCount block_bytes;
  std::size_t cache_blocks;
  bool coalesce;
  std::uint32_t readahead;
  const char* label;
};

class UfsModelProperty : public ::testing::TestWithParam<UfsCase> {};

TEST_P(UfsModelProperty, MatchesReferenceByteArray) {
  const auto& p = GetParam();
  Simulation sim;
  ufs::NullBlockDevice dev(sim, 1ull << 30);
  ufs::ContentArena arena;
  ufs::ContentStore content(arena, p.block_bytes);
  ufs::UfsParams params;
  params.block_bytes = p.block_bytes;
  params.cache_blocks = p.cache_blocks;
  params.coalesce = p.coalesce;
  params.readahead_blocks = p.readahead;
  ufs::Ufs fs(sim, "fuzz", dev, content, nullptr, params);
  const auto ino = fs.create("f");

  std::vector<std::byte> reference;  // the model: a growable byte array
  Rng rng(0xdeadbeef + p.block_bytes);

  run_task(sim, [](ufs::Ufs& f, ufs::InodeNum i, std::vector<std::byte>& ref,
                   Rng& rand) -> Task<void> {
    for (int op = 0; op < 300; ++op) {
      const bool do_write = ref.empty() || rand.uniform01() < 0.4;
      const bool fastpath = rand.uniform01() < 0.5;
      if (do_write) {
        const FileOffset off = rand.uniform_int(0, ref.size() + 10000);
        const ByteCount len = rand.uniform_int(1, 200000);
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rand.uniform_int(0, 255));
        co_await f.write(i, off, data, fastpath);
        if (ref.size() < off + len) ref.resize(off + len, std::byte{0});
        std::memcpy(ref.data() + off, data.data(), len);
      } else {
        const FileOffset off = rand.uniform_int(0, ref.size() - 1);
        const ByteCount len = rand.uniform_int(1, 200000);
        std::vector<std::byte> buf(len);
        const ByteCount got = co_await f.read(i, off, len, buf, fastpath);
        const ByteCount expect = std::min<ByteCount>(len, ref.size() - off);
        EXPECT_EQ(got, expect) << "op " << op;
        EXPECT_EQ(std::memcmp(buf.data(), ref.data() + off, got), 0) << "op " << op;
      }
      EXPECT_EQ(f.file_size(i), ref.size());
    }
  }(fs, ino, reference, rng));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UfsModelProperty,
    ::testing::Values(UfsCase{64 * 1024, 128, true, 0, "paragon_default"},
                      UfsCase{64 * 1024, 2, true, 0, "tiny_cache"},
                      UfsCase{4096, 16, true, 0, "small_blocks"},
                      UfsCase{64 * 1024, 32, false, 0, "no_coalesce"},
                      UfsCase{16 * 1024, 8, true, 4, "with_readahead"}),
    [](const ::testing::TestParamInfo<UfsCase>& pinfo) { return pinfo.param.label; });

// ---------------------------------------------------------------------
// End-to-end integrity: every I/O mode x {prefetch off, on} x request
// size returns exactly the written bytes.
// ---------------------------------------------------------------------

using ModeCase = std::tuple<pfs::IoMode, bool, ByteCount>;

class ModeIntegrityProperty : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeIntegrityProperty, WorkloadVerifiesCleanly) {
  const auto [mode, prefetch, request] = GetParam();
  workload::MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  workload::Experiment e(m);
  workload::WorkloadSpec w;
  w.mode = mode;
  w.prefetch = prefetch;
  w.request_size = request;
  w.file_size = std::max<ByteCount>(1024 * 1024, request * 4 * 4);
  w.compute_delay = 0.01;
  w.verify = true;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_GT(res.total_bytes, 0u);
  EXPECT_GT(res.observed_read_bw_mbs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModeIntegrityProperty,
    ::testing::Combine(::testing::ValuesIn(pfs::all_io_modes()),
                       ::testing::Bool(),
                       ::testing::Values(ByteCount{16 * 1024}, ByteCount{64 * 1024},
                                         ByteCount{192 * 1024})),
    [](const ::testing::TestParamInfo<ModeCase>& pinfo) {
      std::string name(pfs::to_string(std::get<0>(pinfo.param)));
      name += std::get<1>(pinfo.param) ? "_pf" : "_nopf";
      name += '_';
      name += std::to_string(std::get<2>(pinfo.param) / 1024);
      name += 'k';
      return name;
    });

// ---------------------------------------------------------------------
// Prefetch engine resource bounds, swept over depth.
// ---------------------------------------------------------------------

class PrefetchDepthProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefetchDepthProperty, ResidentBuffersNeverExceedBound) {
  const std::size_t depth = GetParam();
  Simulation sim;
  hw::Machine machine(sim, hw::MachineConfig::paragon(1, 4));
  pfs::PfsFileSystem fs(machine, pfs::PfsParams{});
  fs.create("f", fs.default_attrs());
  pfs::PfsClient client(fs, 0, 0, 1);
  prefetch::PrefetchConfig cfg;
  cfg.depth = depth;
  cfg.max_buffers_per_file = 6;
  auto engine = prefetch::attach_prefetcher(client, cfg);

  run_task(sim, [](Simulation& s, pfs::PfsClient& c, prefetch::PrefetchEngine& eng,
                   std::size_t d) -> Task<void> {
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    auto data = ppfs::test::make_pattern(1, 0, 4 * 1024 * 1024);
    co_await c.write(fd, data);
    co_await c.seek(fd, 0);
    std::vector<std::byte> buf(64 * 1024);
    const std::size_t bound = std::min<std::size_t>(d, 6);
    for (int i = 0; i < 20; ++i) {
      co_await c.read(fd, buf);
      EXPECT_LE(eng.resident_buffers(fd), bound);
      co_await s.delay(0.05);
      EXPECT_LE(eng.resident_buffers(fd), bound);
    }
    c.close(fd);
    EXPECT_EQ(eng.resident_buffers(fd), 0u);
  }(sim, client, *engine, depth));

  // Steady state: every read past the pipeline fill is a hit.
  const auto& st = engine->stats();
  EXPECT_GT(st.hits_ready + st.hits_in_flight, 15u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrefetchDepthProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& pinfo) {
                           return "depth" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace ppfs
