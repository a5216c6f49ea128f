// Stripe layout: how a PFS file's bytes map onto the I/O nodes.
//
// "Stripe attributes describe how the file is to be laid out via parameters
// such as the stripe unit size (unit of data interleaving) and the stripe
// group (the I/O node disk partitions across which a PFS file is
// interleaved)."
//
// Mapping (paper Figure 3): stripe unit s = offset / stripe_unit lives on
// group[s % n] at local offset (s / n) * stripe_unit + offset % stripe_unit.
// A byte range therefore decomposes into at most one request per group
// member, each covering a CONTIGUOUS range of that member's stripe file —
// the member's share of consecutive stripes is consecutive locally. The
// `pieces` of a request record where each stripe-unit-sized slice belongs
// in the file, which is what the client needs to scatter arriving data into
// the user buffer.
//
// Mapping runs once per read or write call, so its results go into
// caller-owned inline storage (StripeExtents, CoalescedRequests) and the
// pieces are computed, not stored: a slot's slices are every n-th stripe
// from its first, clipped to the mapped range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "sim/inline_vec.hpp"
#include "sim/types.hpp"

namespace ppfs::pfs {

using sim::ByteCount;
using sim::FileOffset;

struct StripeAttrs {
  /// Unit of data interleaving. Paper default: 64 KB.
  ByteCount stripe_unit = 64 * 1024;
  /// I/O-node indices the file is interleaved across, in stripe order.
  /// The same node may appear more than once ("striping 8 ways across
  /// 1 node" in the paper's Table 4 uses {0,0,0,0,0,0,0,0}).
  std::vector<int> stripe_group = {0};

  int group_size() const { return static_cast<int>(stripe_group.size()); }
};

/// One slice of an I/O-node request, in file space.
struct StripePiece {
  FileOffset file_offset;  // where this slice belongs in the PFS file
  ByteCount length;
};

/// The slices of one slot's request, in local order (file_offset
/// ascending). Slice j is stripe first + j * stride, clipped to the mapped
/// range [begin, end); the view stores only those five numbers.
class StripePieces {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = StripePiece;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = StripePiece;

    iterator() = default;
    iterator(const StripePieces* pieces, std::size_t j) : pieces_(pieces), j_(j) {}
    StripePiece operator*() const noexcept { return (*pieces_)[j_]; }
    iterator& operator++() noexcept {
      ++j_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++j_;
      return old;
    }
    bool operator==(const iterator& o) const noexcept { return j_ == o.j_; }

   private:
    const StripePieces* pieces_ = nullptr;
    std::size_t j_ = 0;
  };

  StripePieces(std::uint64_t first_stripe, std::uint64_t stride, ByteCount unit,
               FileOffset begin, FileOffset end, std::size_t count)
      : first_(first_stripe), stride_(stride), unit_(unit), begin_(begin), end_(end),
        count_(count) {}

  std::size_t size() const noexcept { return count_; }
  StripePiece operator[](std::size_t j) const noexcept {
    const std::uint64_t stripe = first_ + j * stride_;
    const FileOffset lo = stripe * unit_ > begin_ ? stripe * unit_ : begin_;
    const FileOffset hi = (stripe + 1) * unit_ < end_ ? (stripe + 1) * unit_ : end_;
    return StripePiece{lo, hi - lo};
  }
  StripePiece front() const noexcept { return (*this)[0]; }
  StripePiece back() const noexcept { return (*this)[count_ - 1]; }
  iterator begin() const noexcept { return iterator(this, 0); }
  iterator end() const noexcept { return iterator(this, count_); }

 private:
  std::uint64_t first_;   // the slot's first stripe in the range
  std::uint64_t stride_;  // group size: the slot owns every stride-th stripe
  ByteCount unit_;
  FileOffset begin_;  // the mapped range
  FileOffset end_;
  std::size_t count_;
};

/// The portion of a byte range served by one stripe-group slot.
struct IoNodeRequest {
  int group_slot;          // index into StripeAttrs::stripe_group
  int io_index;            // the I/O node behind that slot
  FileOffset local_offset; // contiguous start within the slot's stripe file
  ByteCount length;        // total bytes from this slot
  StripePieces pieces;     // in local order; file_offset ascending
};

/// All of one byte-range's traffic to a single I/O node, merged into one
/// RPC: one control round-trip moves every extent the node serves. With
/// the Table-4 "stripe 8 ways across 1 node" layout this turns 8 per-slot
/// RPCs into 1. Each extent is contiguous within its own stripe file;
/// every extent's io_index is the request's.
struct CoalescedRequest {
  int io_index;
  std::span<const IoNodeRequest> extents;  // into the mapped StripeExtents
};

/// Caller-owned results of map() and coalesce_by_io(): inline up to a
/// whole paper-sized (8-wide) stripe group, spilling to the heap beyond.
using StripeExtents = sim::InlineVec<IoNodeRequest, 8>;
using CoalescedRequests = sim::InlineVec<CoalescedRequest, 8>;

/// Merge per-slot requests into per-I/O-node scatter-gather requests.
/// Output order is the first-appearance order of each io node in `reqs`
/// (which map() emits in group-slot order), so the result is deterministic.
/// Groups `reqs` in place by io node, keeping each group's slot order;
/// `out`'s extents point into `reqs`.
void coalesce_by_io(StripeExtents& reqs, CoalescedRequests& out);

class StripeLayout {
 public:
  explicit StripeLayout(StripeAttrs attrs);

  const StripeAttrs& attrs() const noexcept { return attrs_; }

  /// Group slot that owns the given file offset.
  int slot_of(FileOffset off) const {
    return static_cast<int>((off / attrs_.stripe_unit) %
                            static_cast<std::uint64_t>(attrs_.group_size()));
  }
  int io_node_of(FileOffset off) const { return attrs_.stripe_group[slot_of(off)]; }

  /// Local (stripe-file) offset of the given file offset.
  FileOffset local_offset(FileOffset off) const {
    const std::uint64_t stripe = off / attrs_.stripe_unit;
    return (stripe / attrs_.group_size()) * attrs_.stripe_unit + off % attrs_.stripe_unit;
  }

  /// Decompose [off, off+len) into per-slot requests in `out` (cleared
  /// first; slots with no data are omitted; ordered by group slot).
  void map(FileOffset off, ByteCount len, StripeExtents& out) const;

  /// Local stripe-file size needed on each slot to hold a file of
  /// `file_size` bytes (indexed by group slot).
  std::vector<ByteCount> local_sizes(ByteCount file_size) const;

 private:
  StripeAttrs attrs_;
};

}  // namespace ppfs::pfs
