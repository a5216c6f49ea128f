// Unit tests for stripe layout mapping (paper Figure 3) and I/O mode traits
// (paper Figure 1).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pfs/io_mode.hpp"
#include "pfs/stripe.hpp"

namespace ppfs::pfs {
namespace {

constexpr ByteCount kSU = 64 * 1024;

StripeAttrs attrs8(ByteCount su = kSU) {
  StripeAttrs a;
  a.stripe_unit = su;
  a.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  return a;
}

TEST(StripeLayout, RejectsDegenerateAttrs) {
  StripeAttrs a;
  a.stripe_unit = 0;
  EXPECT_THROW(StripeLayout{a}, std::invalid_argument);
  StripeAttrs b;
  b.stripe_group.clear();
  EXPECT_THROW(StripeLayout{b}, std::invalid_argument);
}

TEST(StripeLayout, OffsetOwnership) {
  StripeLayout l(attrs8());
  EXPECT_EQ(l.io_node_of(0), 0);
  EXPECT_EQ(l.io_node_of(kSU - 1), 0);
  EXPECT_EQ(l.io_node_of(kSU), 1);
  EXPECT_EQ(l.io_node_of(7 * kSU), 7);
  EXPECT_EQ(l.io_node_of(8 * kSU), 0);  // wraps to second round
}

TEST(StripeLayout, LocalOffsets) {
  StripeLayout l(attrs8());
  EXPECT_EQ(l.local_offset(0), 0u);
  EXPECT_EQ(l.local_offset(kSU + 5), 5u);          // node 1, round 0
  EXPECT_EQ(l.local_offset(8 * kSU), kSU);          // node 0, round 1
  EXPECT_EQ(l.local_offset(9 * kSU + 7), kSU + 7);  // node 1, round 1
}

TEST(StripeLayout, SingleUnitRequestHitsOneNode) {
  // Paper Fig 3: "request sizes of 64KB" -> one I/O node per request.
  StripeLayout l(attrs8());
  StripeExtents reqs;
  l.map(3 * kSU, kSU, reqs);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].io_index, 3);
  EXPECT_EQ(reqs[0].local_offset, 0u);
  EXPECT_EQ(reqs[0].length, kSU);
  ASSERT_EQ(reqs[0].pieces.size(), 1u);
  EXPECT_EQ(reqs[0].pieces[0].file_offset, 3 * kSU);
}

TEST(StripeLayout, MultiUnitRequestDeclusters) {
  // Paper Fig 3: "request sizes of 128KB" -> first su to node k, second to
  // node k+1.
  StripeLayout l(attrs8());
  StripeExtents reqs;
  l.map(0, 2 * kSU, reqs);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].io_index, 0);
  EXPECT_EQ(reqs[1].io_index, 1);
  EXPECT_EQ(reqs[0].length, kSU);
  EXPECT_EQ(reqs[1].length, kSU);
}

TEST(StripeLayout, FullRoundTouchesAllNodesOnce) {
  StripeLayout l(attrs8());
  StripeExtents reqs;
  l.map(0, 8 * kSU, reqs);
  ASSERT_EQ(reqs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(reqs[i].io_index, i);
    EXPECT_EQ(reqs[i].length, kSU);
    EXPECT_EQ(reqs[i].local_offset, 0u);
  }
}

TEST(StripeLayout, MultiRoundRequestStaysContiguousLocally) {
  StripeLayout l(attrs8());
  // 16 units: each node serves 2 units that are CONTIGUOUS in its stripe
  // file even though they are 8 units apart in file space.
  StripeExtents reqs;
  l.map(0, 16 * kSU, reqs);
  ASSERT_EQ(reqs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(reqs[i].length, 2 * kSU);
    EXPECT_EQ(reqs[i].local_offset, 0u);
    ASSERT_EQ(reqs[i].pieces.size(), 2u);
    EXPECT_EQ(reqs[i].pieces[0].file_offset, static_cast<FileOffset>(i) * kSU);
    EXPECT_EQ(reqs[i].pieces[1].file_offset, static_cast<FileOffset>(i + 8) * kSU);
  }
}

TEST(StripeLayout, UnalignedRequestSplitsAtUnitBoundary) {
  StripeLayout l(attrs8());
  StripeExtents reqs;
  l.map(kSU / 2, kSU, reqs);  // second half of unit 0 + first half of unit 1
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].io_index, 0);
  EXPECT_EQ(reqs[0].local_offset, kSU / 2);
  EXPECT_EQ(reqs[0].length, kSU / 2);
  EXPECT_EQ(reqs[1].io_index, 1);
  EXPECT_EQ(reqs[1].local_offset, 0u);
  EXPECT_EQ(reqs[1].length, kSU / 2);
}

TEST(StripeLayout, SmallRequestWithinOneUnit) {
  StripeLayout l(attrs8());
  StripeExtents reqs;
  l.map(2 * kSU + 100, 1000, reqs);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].io_index, 2);
  EXPECT_EQ(reqs[0].local_offset, 100u);
  EXPECT_EQ(reqs[0].length, 1000u);
}

TEST(StripeLayout, MapCoversRequestExactly) {
  StripeLayout l(attrs8(16 * 1024));
  const FileOffset off = 37 * 1024;
  const ByteCount len = 555 * 1024;
  StripeExtents reqs;
  l.map(off, len, reqs);
  ByteCount total = 0;
  for (const auto& r : reqs) {
    ByteCount piece_sum = 0;
    for (const auto& p : r.pieces) {
      piece_sum += p.length;
      EXPECT_GE(p.file_offset, off);
      EXPECT_LE(p.file_offset + p.length, off + len);
    }
    EXPECT_EQ(piece_sum, r.length);
    total += r.length;
  }
  EXPECT_EQ(total, len);
}

TEST(StripeLayout, RepeatedNodeInGroupGetsDistinctSlots) {
  // Table 4's "striping 8 ways across 1 node".
  StripeAttrs a;
  a.stripe_unit = kSU;
  a.stripe_group.assign(8, 0);
  StripeLayout l(a);
  StripeExtents reqs;
  l.map(0, 8 * kSU, reqs);
  ASSERT_EQ(reqs.size(), 8u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(reqs[s].group_slot, s);
    EXPECT_EQ(reqs[s].io_index, 0);  // all on node 0
  }
}

TEST(StripeLayout, LocalSizesPartitionFileSize) {
  StripeLayout l(attrs8());
  for (ByteCount fs : std::vector<ByteCount>{0, 1, kSU - 1, kSU, 8 * kSU, 8 * kSU + 123, 1000 * kSU + 7}) {
    auto sizes = l.local_sizes(fs);
    const ByteCount sum = std::accumulate(sizes.begin(), sizes.end(), ByteCount{0});
    EXPECT_EQ(sum, fs) << "file size " << fs;
  }
}

TEST(StripeLayout, SingleNodeGroupIsIdentityMapping) {
  StripeAttrs a;
  a.stripe_unit = kSU;
  a.stripe_group = {0};
  StripeLayout l(a);
  StripeExtents reqs;
  l.map(12345, 300000, reqs);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].local_offset, 12345u);
  EXPECT_EQ(reqs[0].length, 300000u);
}

// --- map() and coalesce_by_io() against a byte walk -------------------------

/// One slot's share of a range, built a byte at a time.
struct WalkedSlot {
  int slot = -1;
  FileOffset local_offset = 0;
  ByteCount length = 0;
  std::vector<StripePiece> pieces;
};

/// The reference: visit every byte of [off, off+len), place it by the
/// Figure 3 formulas, and cut a new piece wherever the stripe changes.
/// Slots come out in slot order, as map() emits them.
std::vector<WalkedSlot> byte_walk(const StripeAttrs& a, FileOffset off, ByteCount len) {
  const std::uint64_t n = a.stripe_group.size();
  std::vector<WalkedSlot> slots(n);
  bool locally_contiguous = true;
  for (FileOffset b = off; b < off + len; ++b) {
    const std::uint64_t stripe = b / a.stripe_unit;
    WalkedSlot& w = slots[stripe % n];
    const FileOffset local = (stripe / n) * a.stripe_unit + b % a.stripe_unit;
    if (w.slot < 0) {
      w.slot = static_cast<int>(stripe % n);
      w.local_offset = local;
    }
    locally_contiguous = locally_contiguous && local == w.local_offset + w.length;
    ++w.length;
    StripePiece* last = w.pieces.empty() ? nullptr : &w.pieces.back();
    if (last != nullptr && last->file_offset + last->length == b &&
        last->file_offset / a.stripe_unit == stripe) {
      ++last->length;
    } else {
      w.pieces.push_back(StripePiece{b, 1});
    }
  }
  EXPECT_TRUE(locally_contiguous) << "a slot's share is not contiguous in its stripe file";
  std::vector<WalkedSlot> used;
  for (WalkedSlot& w : slots) {
    if (w.slot >= 0) used.push_back(std::move(w));
  }
  return used;
}

void expect_matches_walk(const StripeAttrs& a, FileOffset off, ByteCount len) {
  SCOPED_TRACE(::testing::Message() << "group " << a.stripe_group.size() << " unit "
                                    << a.stripe_unit << " off " << off << " len " << len);
  const std::vector<WalkedSlot> want = byte_walk(a, off, len);
  StripeExtents got;
  StripeLayout(a).map(off, len, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].group_slot, want[i].slot);
    EXPECT_EQ(got[i].io_index, a.stripe_group[static_cast<std::size_t>(want[i].slot)]);
    EXPECT_EQ(got[i].local_offset, want[i].local_offset);
    EXPECT_EQ(got[i].length, want[i].length);
    ASSERT_EQ(got[i].pieces.size(), want[i].pieces.size()) << "slot " << want[i].slot;
    for (std::size_t j = 0; j < want[i].pieces.size(); ++j) {
      EXPECT_EQ(got[i].pieces[j].file_offset, want[i].pieces[j].file_offset);
      EXPECT_EQ(got[i].pieces[j].length, want[i].pieces[j].length);
    }
  }

  // coalesce_by_io: one request per io node in first-appearance order,
  // holding that node's slots in slot order.
  std::vector<int> io_order;
  std::vector<std::vector<int>> io_slots;
  for (const WalkedSlot& w : want) {
    const int io = a.stripe_group[static_cast<std::size_t>(w.slot)];
    std::size_t k = 0;
    while (k < io_order.size() && io_order[k] != io) ++k;
    if (k == io_order.size()) {
      io_order.push_back(io);
      io_slots.emplace_back();
    }
    io_slots[k].push_back(w.slot);
  }
  CoalescedRequests merged;
  coalesce_by_io(got, merged);
  ASSERT_EQ(merged.size(), io_order.size());
  std::size_t extents = 0;
  for (std::size_t k = 0; k < io_order.size(); ++k) {
    EXPECT_EQ(merged[k].io_index, io_order[k]);
    ASSERT_EQ(merged[k].extents.size(), io_slots[k].size());
    for (std::size_t e = 0; e < io_slots[k].size(); ++e) {
      const IoNodeRequest& ext = merged[k].extents[e];
      EXPECT_EQ(ext.group_slot, io_slots[k][e]);
      EXPECT_EQ(ext.io_index, io_order[k]);
      const WalkedSlot* w = nullptr;
      for (const WalkedSlot& c : want) {
        if (c.slot == ext.group_slot) w = &c;
      }
      ASSERT_NE(w, nullptr);
      EXPECT_EQ(ext.local_offset, w->local_offset);
      EXPECT_EQ(ext.length, w->length);
      EXPECT_EQ(ext.pieces.size(), w->pieces.size());
    }
    extents += merged[k].extents.size();
  }
  EXPECT_EQ(extents, want.size());
}

TEST(StripeLayout, MapAndCoalesceMatchAByteWalk) {
  std::vector<std::vector<int>> groups = {{0}, {2, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7}};
  std::vector<int> wide(64);
  std::iota(wide.begin(), wide.end(), 0);
  groups.push_back(wide);
  groups.push_back({0, 0, 0, 0, 0, 0, 0, 0});
  for (const std::vector<int>& group : groups) {
    for (ByteCount unit : {ByteCount{4 * 1024}, ByteCount{64 * 1024}, ByteCount{3000}}) {
      StripeAttrs a;
      a.stripe_unit = unit;
      a.stripe_group = group;
      const ByteCount n = group.size();
      const FileOffset offsets[] = {
          2 * unit,                      // stripe-aligned
          unit + unit / 3 + 1,           // misaligned
          (2 * n - 1) * unit + unit / 2  // mid last slot: the range wraps the group
      };
      const ByteCount lengths[] = {0, 1, unit - 1, unit, n * unit + 1, 3 * n * unit};
      for (FileOffset off : offsets) {
        for (ByteCount len : lengths) expect_matches_walk(a, off, len);
      }
    }
  }
}

TEST(IoMode, TraitsMatchPaperTaxonomy) {
  EXPECT_FALSE(traits(IoMode::kUnix).shared_pointer);
  EXPECT_TRUE(traits(IoMode::kUnix).atomic);
  EXPECT_FALSE(traits(IoMode::kAsync).shared_pointer);
  EXPECT_FALSE(traits(IoMode::kAsync).atomic);
  EXPECT_TRUE(traits(IoMode::kLog).shared_pointer);
  EXPECT_FALSE(traits(IoMode::kLog).node_ordered);
  EXPECT_TRUE(traits(IoMode::kSync).synchronized);
  EXPECT_FALSE(traits(IoMode::kSync).same_data);
  EXPECT_TRUE(traits(IoMode::kGlobal).same_data);
  EXPECT_TRUE(traits(IoMode::kRecord).node_ordered);
  EXPECT_FALSE(traits(IoMode::kRecord).synchronized);
  EXPECT_TRUE(traits(IoMode::kRecord).fixed_records);
}

TEST(IoMode, ModeNumbersMatchParagon) {
  EXPECT_EQ(static_cast<int>(IoMode::kUnix), 0);
  EXPECT_EQ(static_cast<int>(IoMode::kAsync), 1);
  EXPECT_EQ(static_cast<int>(IoMode::kSync), 2);
  EXPECT_EQ(static_cast<int>(IoMode::kRecord), 3);
  EXPECT_EQ(static_cast<int>(IoMode::kGlobal), 4);
  EXPECT_EQ(static_cast<int>(IoMode::kLog), 5);
}

TEST(IoMode, NamesAndEnumeration) {
  EXPECT_EQ(to_string(IoMode::kRecord), "M_RECORD");
  EXPECT_EQ(all_io_modes().size(), 6u);
  for (auto m : all_io_modes()) EXPECT_FALSE(to_string(m).empty());
}

}  // namespace
}  // namespace ppfs::pfs
