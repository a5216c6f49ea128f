// Shared-pointer and collective coordination services.
//
// The shared-pointer I/O modes need a single serialization point: "All the
// individual file pointers are required to point to the same location
// before a read request is issued in any of the PFS I/O modes. Before
// processing the read request, the Paragon OS sets the individual file
// pointers from the nodes to point to the starting locations of separate
// areas in the file."
//
// These services live on the PFS metadata node (I/O node 0). Message costs
// to reach them are charged by the client; the services charge the
// metadata node's CPU per operation, so heavy pointer traffic contends
// there — the M_UNIX/M_LOG bottleneck in Figure 2.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hw/machine.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::pfs {

using sim::ByteCount;
using sim::FileOffset;

using FileId = std::uint64_t;

/// Shared file pointers plus the per-file atomicity lock.
class PointerService {
 public:
  PointerService(hw::Machine& machine, hw::NodeId home_node, double service_time)
      : machine_(machine), home_(home_node), service_time_(service_time) {}
  PointerService(const PointerService&) = delete;
  PointerService& operator=(const PointerService&) = delete;

  /// M_LOG: atomically claim [pointer, pointer+len) and advance.
  sim::Task<FileOffset> fetch_and_add(FileId file, ByteCount len);

  /// M_UNIX atomicity: exclusive per-file access token, held for the whole
  /// data transfer. FIFO-fair.
  sim::Task<sim::ResourceGuard> acquire_file_lock(FileId file);

  FileOffset pointer(FileId file) const;
  void set_pointer(FileId file, FileOffset off);

 private:
  struct State {
    FileOffset pointer = 0;
    std::unique_ptr<sim::Resource> lock;
  };
  State& state(FileId file);

  hw::Machine& machine_;
  hw::NodeId home_;
  double service_time_;
  std::map<FileId, State> files_;
};

/// Gang coordination for the synchronized modes (M_SYNC, M_GLOBAL).
///
/// Every participant of a collective op calls arrive() with its request
/// size; the last arrival assigns offsets in node (rank) order from the
/// file's shared pointer and advances it — by the sum of sizes for M_SYNC,
/// or by one request for M_GLOBAL (everyone reads the same data).
class CollectiveService {
 public:
  CollectiveService(hw::Machine& machine, hw::NodeId home_node, PointerService& pointers,
                    double service_time)
      : machine_(machine), home_(home_node), pointers_(pointers), service_time_(service_time) {}
  CollectiveService(const CollectiveService&) = delete;
  CollectiveService& operator=(const CollectiveService&) = delete;

  /// Blocks until all `nprocs` ranks of this round have arrived; returns
  /// this rank's assigned file offset.
  sim::Task<FileOffset> arrive(FileId file, int rank, int nprocs, ByteCount len,
                               bool same_data);

  std::uint64_t rounds_completed() const noexcept { return rounds_; }

 private:
  struct Round {
    std::vector<ByteCount> sizes;
    std::vector<bool> present;
    std::size_t arrived = 0;
    bool same_data = false;
    std::vector<FileOffset> offsets;
    std::unique_ptr<sim::Event> done;
  };

  hw::Machine& machine_;
  hw::NodeId home_;
  PointerService& pointers_;
  double service_time_;
  std::map<FileId, std::shared_ptr<Round>> open_rounds_;
  std::uint64_t rounds_ = 0;
};

}  // namespace ppfs::pfs
