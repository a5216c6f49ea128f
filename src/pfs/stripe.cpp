#include "pfs/stripe.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ppfs::pfs {

StripeLayout::StripeLayout(StripeAttrs attrs) : attrs_(std::move(attrs)) {
  if (attrs_.stripe_unit == 0) throw std::invalid_argument("StripeLayout: zero stripe unit");
  if (attrs_.stripe_group.empty()) {
    throw std::invalid_argument("StripeLayout: empty stripe group");
  }
}

// ppfs::hot — map and coalesce_by_io run once per read or write call; their
// results go into the caller's inline storage

void StripeLayout::map(FileOffset off, ByteCount len, StripeExtents& out) const {
  out.clear();
  if (len == 0) return;
  const std::uint64_t n = attrs_.stripe_group.size();
  const ByteCount unit = attrs_.stripe_unit;
  const FileOffset end = off + len;
  const std::uint64_t first = off / unit;
  const std::uint64_t last = (end - 1) / unit;  // inclusive
  // The stripes a range touches are consecutive, so the slots it touches
  // are consecutive mod n from first % n. In slot order, any that wrapped
  // past slot n-1 come first.
  const std::uint64_t touched = last - first + 1 < n ? last - first + 1 : n;
  const std::uint64_t s0 = first % n;
  const std::uint64_t wrapped = s0 + touched > n ? s0 + touched - n : 0;
  const auto emit = [&](std::uint64_t slot) {
    const std::uint64_t slot_first = first + (slot + n - s0) % n;  // its first stripe
    const StripePieces pieces(slot_first, n, unit, off, end, (last - slot_first) / n + 1);
    const StripePiece head = pieces.front();
    ByteCount length = head.length;
    if (pieces.size() > 1) {
      length += (pieces.size() - 2) * unit + pieces.back().length;
    }
    out.push_back(IoNodeRequest{static_cast<int>(slot),
                                attrs_.stripe_group[static_cast<std::size_t>(slot)],
                                local_offset(head.file_offset), length, pieces});
  };
  for (std::uint64_t slot = 0; slot < wrapped; ++slot) emit(slot);
  for (std::uint64_t slot = s0; slot < s0 + touched - wrapped; ++slot) emit(slot);
}

void coalesce_by_io(StripeExtents& reqs, CoalescedRequests& out) {
  out.clear();
  // A stable grouping: rotate each later extent of the group's io node up
  // behind the group, so both the groups and their extents keep the order
  // they first appear in.
  for (std::size_t begin = 0; begin < reqs.size();) {
    const int io = reqs[begin].io_index;
    std::size_t end = begin + 1;
    for (std::size_t j = end; j < reqs.size(); ++j) {
      if (reqs[j].io_index != io) continue;
      std::rotate(reqs.begin() + end, reqs.begin() + j, reqs.begin() + j + 1);
      ++end;
    }
    out.push_back(CoalescedRequest{io, std::span<const IoNodeRequest>(&reqs[begin], end - begin)});
    begin = end;
  }
}
// ppfs::endhot

std::vector<ByteCount> StripeLayout::local_sizes(ByteCount file_size) const {
  const int n = attrs_.group_size();
  const ByteCount round = attrs_.stripe_unit * static_cast<ByteCount>(n);
  const ByteCount full_rounds = file_size / round;
  const ByteCount rem = file_size % round;
  std::vector<ByteCount> sizes(n, full_rounds * attrs_.stripe_unit);
  for (int s = 0; s < n; ++s) {
    const ByteCount slot_start = static_cast<ByteCount>(s) * attrs_.stripe_unit;
    if (rem > slot_start) {
      sizes[s] += std::min<ByteCount>(rem - slot_start, attrs_.stripe_unit);
    }
  }
  return sizes;
}

}  // namespace ppfs::pfs
