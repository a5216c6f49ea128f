// The per-file prefetch buffer list — the prototype's core data structure.
//
// "Once the asynchronous request is done, the data that has been read is
// stored in a buffer along with other details such as the PFS file offset,
// the size of the data in bytes etc. This prefetch buffer structure is part
// of a list of all the prefetch buffer structures of data that have been
// prefetched from that particular file. ... Memory for the prefetch buffers
// is allocated in the compute node. At the time the process closes the
// file, all the prefetch buffers are freed."
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "pfs/async.hpp"
#include "sim/types.hpp"

namespace ppfs::prefetch {

using sim::ByteCount;
using sim::FileOffset;

/// One prefetched (or in-flight) block, plus its tracking details.
struct PrefetchBuffer {
  FileOffset offset = 0;   // PFS file offset of the data
  ByteCount length = 0;    // size of the data in bytes
  /// Mount topology epoch when the prefetch was issued. A crash or restart
  /// bumps the epoch; a buffer stamped in a dead epoch must never be served
  /// (its bytes may predate the crash) — try_serve discards it instead.
  std::uint64_t epoch = 0;
  /// Compute-node memory holding the block, `length` bytes. Uninitialised:
  /// the ART writes it, and nothing reads past `request->result`.
  std::unique_ptr<std::byte[]> data;
  pfs::AsyncHandle request;     // the asynchronous request that fills it

  bool in_flight() const { return request && !request->done.is_set(); }
  bool completed() const { return request && request->done.is_set(); }
};

/// The list of prefetch buffers belonging to one open file.
class PrefetchBufferList {
 public:
  using Handle = std::shared_ptr<PrefetchBuffer>;

  /// Append a buffer (newest last, mirroring issue order).
  void add(Handle buf);

  /// Exact-match lookup (offset AND length): the prototype prefetches the
  /// precise block it anticipates, so a hit means the anticipated read
  /// arrived. Does not remove the buffer.
  Handle find(FileOffset offset, ByteCount length) const;

  /// Any buffer overlapping [offset, offset+length) — used to detect and
  /// retire stale/partially-matching prefetches.
  std::vector<Handle> overlapping(FileOffset offset, ByteCount length) const;

  void remove(const Handle& buf);
  /// Oldest buffer (first issued), or nullptr when empty.
  Handle oldest() const { return buffers_.empty() ? nullptr : buffers_.front(); }
  /// Detach every buffer (file close): returns them so in-flight ones can
  /// be parked until their ARTs finish.
  std::vector<Handle> drain();

  std::size_t size() const noexcept { return buffers_.size(); }
  bool empty() const noexcept { return buffers_.empty(); }
  ByteCount resident_bytes() const noexcept { return resident_bytes_; }

 private:
  std::list<Handle> buffers_;
  ByteCount resident_bytes_ = 0;
};

}  // namespace ppfs::prefetch
