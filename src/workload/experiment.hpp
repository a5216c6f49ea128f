// The experiment driver: build a machine, lay out the file(s), run one
// workload, report the paper's metrics.
//
// Metrics, following Section 4: "The read bandwidth is the total amount of
// data that can be read by all the nodes per unit time as observed by the
// application. For a parallel I/O mode like M_RECORD, the numerator would
// be the amount of data read by all the compute nodes and the time taken
// is the time taken by a compute node to complete all the read calls."
// observed_read_bw uses exactly that denominator (the slowest node's total
// time spent inside read calls) — which is why prefetching that overlaps
// I/O with the inter-read computation raises the observed bandwidth. The
// wall-clock bandwidth (including compute) is reported alongside.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/stats.hpp"
#include "hw/machine.hpp"
#include "sim/stats.hpp"
#include "pfs/server.hpp"
#include "prefetch/engine.hpp"
#include "workload/generator.hpp"

namespace ppfs::trace {
class TraceSink;
}

namespace ppfs::workload {

struct MachineSpec {
  int ncompute = 8;
  int nio = 8;
  hw::RaidParams raid = hw::RaidParams::scsi8();
  hw::CpuParams compute_cpu{};
  hw::CpuParams io_cpu{};
  pfs::PfsParams pfs{};
  /// Mesh segmentation MTU (0 = legacy circuit transfers). Applied to
  /// MachineConfig::mesh when a driver builds its machine.
  ByteCount mesh_mtu = 0;
};

/// The counter block every workload driver reports, filled in one place:
/// the run skeleton's collect (src/workload/rig.cpp). Two scopes:
///   - measured phase: the application-call counters (writes,
///     bytes_written, the per-node read and write call times) count only
///     the phase the driver measures, never the populate before it;
///   - whole run (populate + phase): everything else, that is the protocol
///     and stack traffic (RPCs, tokens, write-back, mesh, servers, RAID,
///     cache tier, faults, prefetch), the digest and the footprint.
struct RunCounters {
  /// Application write calls that returned, and their bytes.
  std::uint64_t writes = 0;
  ByteCount bytes_written = 0;
  /// Per-node total time inside read calls; max is the paper's denominator.
  std::vector<sim::SimTime> node_read_time;
  sim::SimTime max_node_read_time = 0;
  sim::SimTime max_node_write_time = 0;  // slowest node's total write-call time
  double observed_write_bw_mbs = 0;      // bytes_written / max_node_write_time

  prefetch::PrefetchStats prefetch;  // summed across nodes (zero w/o engine)

  /// Per-class RPC traffic summed across clients: the split makes the
  /// metadata node's control-message load visible next to the data traffic
  /// it serializes.
  std::uint64_t data_rpcs = 0;
  std::uint64_t metadata_rpcs = 0;
  std::uint64_t pointer_rpcs = 0;
  std::uint64_t coalesced_rpcs = 0;
  std::uint64_t coalesced_extents = 0;
  std::uint64_t stripe_map_refreshes = 0;

  /// Data-path instrumentation: mesh segmentation and server batching.
  std::uint64_t mesh_segmented_messages = 0;
  std::uint64_t mesh_segments = 0;
  std::uint64_t server_batch_sweeps = 0;
  std::uint64_t server_batched_extents = 0;
  /// Busiest mesh links (id, busy seconds), busiest first — the wiring
  /// hot-spot view of the run.
  std::vector<std::pair<int, sim::SimTime>> top_links;

  /// Fault/recovery counters summed across the whole stack (all zero on a
  /// healthy run with an empty plan). app_errors counts the FaultErrors the
  /// driver's application code caught.
  fault::FaultSummary faults;

  /// Second-tier cache counters summed across I/O nodes (all zero when the
  /// tier is off). The warm-restart ratio covers only servers that actually
  /// ran a recovery pass — it is the post-restart service quality.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_journal_flushes = 0;
  std::uint64_t cache_recoveries = 0;
  std::uint64_t cache_recovered_blocks = 0;
  std::uint64_t cache_torn_dropped = 0;
  std::uint64_t cache_stale_dropped = 0;
  std::uint64_t cache_warm_lookups = 0;
  std::uint64_t cache_warm_hits = 0;
  double cache_warm_hit_ratio = 0;
  sim::SimTime cache_recovery_time = 0;  // summed journal-replay time

  /// TokenWrite counters summed across clients (all zero unless
  /// PfsParams::write_tokens is on): the token protocol traffic and the
  /// write-back cache behavior.
  std::uint64_t token_rpcs = 0;          // acquisitions that reached the manager
  std::uint64_t token_local_grants = 0;  // acquisitions served by the token cache
  std::uint64_t token_grants = 0;        // grants the manager installed
  std::uint64_t token_revocations = 0;   // conflicting ranges revoked
  std::uint64_t token_splits = 0;        // partial-overlap grant splits
  std::uint64_t token_invalidations = 0; // client held-ranges dropped/trimmed
  std::uint64_t wb_writes = 0;           // writes buffered dirty (no data RPC)
  std::uint64_t wb_read_hits = 0;        // reads served wholly from dirty data
  std::uint64_t wb_flush_ops = 0;
  ByteCount wb_flushed_bytes = 0;
  std::uint64_t wb_revocation_flushes = 0;
  std::uint64_t wb_fsync_flushes = 0;
  std::uint64_t wb_capacity_evictions = 0;
  ByteCount wb_peak_dirty_bytes = 0;     // max across clients

  /// SimCheck determinism digest of the whole run (populate + phase): the
  /// kernel's FNV-1a hash over every dispatched event. Two runs of the same
  /// spec must agree bit-for-bit — see ppfs_run --selfcheck.
  std::uint64_t digest = 0;
  std::uint64_t events_dispatched = 0;

  /// Memory-footprint counters (deterministic — derived from kernel pool
  /// capacities and live frames, not OS RSS, so tests can gate on them).
  /// peak_pending_events is the event-queue depth high-water;
  /// frame_arena_bytes is the run's own peak of live FrameArena blocks
  /// (coroutine frames, boxed callbacks, join states), the same whatever
  /// ran on the thread before; machine_state_bytes is the sharded per-node
  /// state; bytes_per_event is the kernel footprint (queue + that arena
  /// peak) amortized over every dispatched event — flat stats mean this
  /// falls with run length instead of plateauing at a per-event
  /// accumulation cost.
  std::uint64_t peak_pending_events = 0;
  std::uint64_t event_queue_bytes = 0;
  std::uint64_t frame_arena_bytes = 0;
  std::uint64_t machine_state_bytes = 0;
  double bytes_per_event = 0;
};

struct ExperimentResult : RunCounters {
  // Inputs echoed back for table printing.
  WorkloadSpec spec;

  ByteCount total_bytes = 0;     // delivered to the application(s)
  std::uint64_t reads = 0;
  sim::SimTime wall_elapsed = 0; // first read issued -> last read complete
  sim::SimTime mean_read_call_time = 0;
  /// Per-read-call latency distribution across all nodes (the write
  /// workloads record write-call latencies here). Streaming and
  /// fixed-footprint (log2-bin sketch): the result's memory does not grow
  /// with the number of reads, which is what keeps bytes/event flat on
  /// production-scale runs.
  sim::StreamingQuantiles read_latencies;

  double observed_read_bw_mbs = 0;  // total_bytes / max_node_read_time
  double wall_bw_mbs = 0;           // total_bytes / wall_elapsed

  std::uint64_t verify_failures = 0;
};

/// Runs workloads on a freshly-built machine each time (fully
/// deterministic; no state leaks between runs).
class Experiment {
 public:
  explicit Experiment(MachineSpec spec = {}) : spec_(spec) {}

  /// Called after the run drains but before the machine is torn down, with
  /// the live mount — the hook ppfs_fsck and the recovery tests use to
  /// audit/corrupt the cache tiers while they still exist.
  using PostRunHook = std::function<void(pfs::PfsFileSystem&)>;

  ExperimentResult run(const WorkloadSpec& w) const { return run(w, nullptr); }

  /// Same, with a TraceScope sink attached to the simulation for the whole
  /// run (populate + read phase). The sink only observes — digests are
  /// bit-identical with tracing on or off. nullptr = tracing off.
  ExperimentResult run(const WorkloadSpec& w, trace::TraceSink* sink) const {
    return run(w, sink, nullptr);
  }
  ExperimentResult run(const WorkloadSpec& w, trace::TraceSink* sink,
                       const PostRunHook& post_run) const;

  /// Paper Table 2: the access time of a single read call of this size in
  /// the standard collective (no prefetch, no delays) setting.
  sim::SimTime read_access_time(ByteCount request_size) const;

  const MachineSpec& machine_spec() const noexcept { return spec_; }

 private:
  MachineSpec spec_;
};

}  // namespace ppfs::workload
