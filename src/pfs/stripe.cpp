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

std::vector<IoNodeRequest> StripeLayout::map(FileOffset off, ByteCount len) const {
  const int n = attrs_.group_size();
  std::vector<IoNodeRequest> per_slot(n);
  std::vector<bool> used(n, false);

  FileOffset pos = off;
  const FileOffset end = off + len;
  while (pos < end) {
    const std::uint64_t stripe = pos / attrs_.stripe_unit;
    const FileOffset stripe_end = (stripe + 1) * attrs_.stripe_unit;
    const ByteCount chunk = std::min<FileOffset>(stripe_end, end) - pos;
    const int slot = static_cast<int>(stripe % static_cast<std::uint64_t>(n));

    IoNodeRequest& req = per_slot[slot];
    if (!used[slot]) {
      used[slot] = true;
      req.group_slot = slot;
      req.io_index = attrs_.stripe_group[slot];
      req.local_offset = local_offset(pos);
      req.length = 0;
    }
    req.pieces.push_back(StripePiece{pos, chunk});
    req.length += chunk;
    pos += chunk;
  }

  std::vector<IoNodeRequest> out;
  for (int s = 0; s < n; ++s) {
    if (used[s]) out.push_back(std::move(per_slot[s]));
  }
  return out;
}

std::vector<CoalescedRequest> coalesce_by_io(std::vector<IoNodeRequest> reqs) {
  std::vector<CoalescedRequest> out;
  for (IoNodeRequest& req : reqs) {
    CoalescedRequest* dst = nullptr;
    for (CoalescedRequest& c : out) {
      if (c.io_index == req.io_index) {
        dst = &c;
        break;
      }
    }
    if (!dst) {
      out.push_back(CoalescedRequest{req.io_index, {}});
      dst = &out.back();
    }
    dst->extents.push_back(std::move(req));
  }
  return out;
}

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
