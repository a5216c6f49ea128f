// PfsServer: the PFS I/O daemon on one I/O node.
//
// Each I/O node runs a UFS on its RAID array; the PFS server fields read
// and write requests for the stripe files it hosts. Per-request CPU costs
// are charged against the I/O node's processor, so many compute nodes
// hammering one I/O node contend for its CPU as well as its disk.
//
// Data-path options (both default off; see DESIGN.md §8):
//  - coalesce_rpcs: clients merge same-I/O-node extents into scatter-gather
//    RPCs served by serve_batch — one request-handling charge and one
//    control round-trip instead of one per extent.
//  - server_batch: extent service funnels through a per-node queue; a
//    spawn-on-demand dispatcher drains it in physical (elevator-sweep)
//    order, so concurrently-arriving requests become one disk sweep
//    instead of N arrival-order seeks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "fault/retry.hpp"
#include "hw/machine.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"

namespace ppfs::pfs {

using sim::ByteCount;
using sim::FileOffset;

struct PfsParams {
  ufs::UfsParams ufs;
  /// I/O-node CPU time to parse/dispatch one request and set up DMA.
  double server_request_overhead = 120.0e-6;
  /// Size of a PFS control message (request, ack, pointer ops) on the wire.
  ByteCount control_message_bytes = 96;
  /// Metadata/pointer-service CPU time per operation.
  double pointer_service_time = 15.0e-6;
  /// Max asynchronous request threads processing one client's queue.
  std::size_t max_arts_per_client = 4;
  /// Client-side RPC reliability envelope (retries, backoff, deadline).
  fault::RetryPolicy retry;
  /// Merge an operation's same-I/O-node extents into one scatter-gather
  /// RPC (single control round-trip, single request-handling charge) and
  /// cache the per-file stripe map client-side with epoch invalidation.
  bool coalesce_rpcs = false;
  /// Queue concurrently-arriving extent requests per I/O node and serve
  /// them as physically-sorted batches (one elevator sweep, not N seeks).
  bool server_batch = false;
  /// TokenWrite: route synchronous reads/writes through byte-range tokens
  /// issued by the metadata node's token manager, with per-client
  /// write-back caches that buffer dirty data until revocation or fsync.
  /// Default off — the read-only paper scenarios stay bit-identical.
  bool write_tokens = false;
  /// Per-client dirty-byte budget for the write-back cache; exceeding it
  /// flushes the lowest-offset dirty extents first (capacity eviction).
  ByteCount write_back_bytes = 1024 * 1024;
};

class PfsServer {
 public:
  /// The server's content store takes its chunks from `content_arena`,
  /// which must outlive the server (the mount owns it).
  PfsServer(hw::Machine& machine, int io_index, const PfsParams& params,
            ufs::ContentArena& content_arena);
  PfsServer(const PfsServer&) = delete;
  PfsServer& operator=(const PfsServer&) = delete;

  /// One stripe-file extent of a request. Its bytes stay where the caller
  /// keeps them: `out` and `in` view them in the caller's buffer, local
  /// offset local_off + p at view position p.
  struct ExtentOp {
    ufs::InodeNum ino;
    FileOffset local_off = 0;
    ByteCount len = 0;
    ufs::OutBytes out;  // read target (empty for writes)
    ufs::InBytes in;    // write source (empty for reads)
    ByteCount got = 0;  // bytes actually moved, filled by the server
  };

  /// Serve one extent of a local stripe file: a read fills op.out, a write
  /// stores op.in, and op.got says how many bytes moved. Charges the
  /// request-handling CPU, then runs the UFS access (fast path when the
  /// extent is aligned and the caller asks for it).
  sim::Task<void> serve(ExtentOp& op, bool is_write, bool fastpath);

  /// Serve every extent of one coalesced RPC: the request-handling CPU is
  /// charged once for the whole RPC, then the extents proceed concurrently
  /// (through the batch queue when server_batch is on). Fills op.got per
  /// extent. A failed extent surfaces as FaultError after the siblings
  /// settle — the client retries the whole (idempotent) RPC.
  sim::Task<void> serve_batch(std::span<ExtentOp> ops, bool is_write, bool fastpath);

  ufs::Ufs& ufs() noexcept { return ufs_; }

  std::uint64_t requests_served() const noexcept { return requests_; }
  /// Batch-queue telemetry: dispatcher sweeps run, extents they carried.
  std::uint64_t batch_sweeps() const noexcept { return batch_sweeps_; }
  std::uint64_t batched_extents() const noexcept { return batched_extents_; }

  // --- crash/restart fault model ---
  /// Take the I/O daemon down. Requests arriving while down fail with
  /// FaultError(kNodeDown); requests already in service lose their reply
  /// (the crash epoch changes under them). With the cache tier enabled the
  /// crash also tears any in-flight journal write and drops the tier's
  /// volatile residency.
  void crash();
  /// Restart the daemon: the node comes back with a cold buffer cache and
  /// wakes every client parked on up_event(). With the cache tier enabled
  /// the daemon first replays the tier's journal (a timed recovery pass,
  /// traced as a kServer/kRecovery span) and only then serves requests —
  /// warm blocks survive into the new epoch.
  void restore();
  bool down() const noexcept { return down_; }
  /// Set while the server is up; reset during an outage. Clients bound
  /// their recovery wait on this with wait_with_timeout.
  sim::Event& up_event() noexcept { return up_ev_; }
  /// Incremented by every crash. A reply is trustworthy only if the epoch
  /// is unchanged across the request's service time.
  std::uint64_t crash_epoch() const noexcept { return crash_epoch_; }

  /// Wire up the mount-wide topology epoch (PfsFileSystem owns it): every
  /// crash and restore bumps it, invalidating client-cached stripe maps.
  void set_topology_epoch_counter(std::uint64_t* counter) noexcept {
    topology_epoch_ = counter;
  }

 private:
  /// An extent queued for the batch dispatcher, which sets op->got. Lives
  /// in the enqueuing coroutine's frame until `done` fires.
  struct QueuedIo {
    QueuedIo(sim::Simulation& s, ExtentOp& o, bool write, bool fast)
        : op(&o), is_write(write), fastpath(fast), done(s) {}
    ExtentOp* op;
    bool is_write;
    bool fastpath;
    bool failed = false;
    fault::ErrorCause cause{};
    std::string what;
    sim::Event done;
  };

  /// Admission shared by every request: a down daemon refuses it; an up
  /// one counts it and returns the request-handling CPU charge to await.
  sim::Task<void> admit();
  fault::FaultError down_error() const;
  /// Start the dispatcher unless it runs. Callers queue every extent of a
  /// request first, so the request sorts as one batch.
  void kick_dispatcher();
  sim::Task<void> batch_dispatch();
  /// Run one sweep's tasks to completion, then fire `done` (the
  /// dispatcher's pipelining handle).
  sim::Task<void> sweep_and_signal(std::vector<sim::Task<void>> parts, sim::Event& done,
                                   std::uint64_t trace_span);
  /// One sweep item: UFS access with FaultError captured into the item.
  sim::Task<void> serve_queued(QueuedIo& item);
  /// The UFS read or write behind one extent; sets op.got.
  sim::Task<void> access(ExtentOp& op, bool is_write, bool fastpath);
  /// A run of fastpath-eligible sweep reads served as one sorted UFS
  /// batch (contiguous blocks merge into single device transfers).
  sim::Task<void> serve_sorted(std::vector<QueuedIo*> group);
  std::uint64_t phys_key(const QueuedIo& item) const;
  /// Replay the cache tier's journal, then bring the daemon up (detached;
  /// spawned by restore() when the tier is enabled).
  sim::Task<void> recover_and_come_up();

  hw::Machine& machine_;
  int io_index_;
  hw::NodeId mesh_node_;
  const PfsParams& params_;
  ufs::RaidBlockDevice device_;
  ufs::ContentStore content_;
  ufs::Ufs ufs_;
  std::uint64_t requests_ = 0;
  bool down_ = false;
  bool recovering_ = false;
  std::uint64_t crash_epoch_ = 0;
  sim::Event up_ev_;
  std::uint64_t* topology_epoch_ = nullptr;

  std::vector<QueuedIo*> queue_;
  bool dispatcher_running_ = false;
  std::uint64_t sweep_head_ = 0;
  std::uint64_t batch_sweeps_ = 0;
  std::uint64_t batched_extents_ = 0;
};

}  // namespace ppfs::pfs
