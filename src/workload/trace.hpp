// Access-trace capture and replay.
//
// The paper evaluates synthetic workloads; real deployments want to replay
// application I/O traces against configuration changes ("a greater variety
// of workloads and access patterns" — the paper's future work). An
// AccessTrace is a per-rank sequence of reads/seeks with think times, with
// a plain-text format so traces can be captured once and versioned:
//
//   # ppfs-trace v1
//   mode M_RECORD
//   ranks 8
//   0 seek 65536
//   0 read 65536 0.05      <- rank op length think_seconds
//   1 read 65536 0
//
// replay_trace() runs a trace on a fresh machine and reports it in the
// same result record as Experiment::run.
#pragma once

#include <string>
#include <vector>

#include "pfs/io_mode.hpp"
#include "prefetch/engine.hpp"
#include "sim/types.hpp"
#include "workload/experiment.hpp"

namespace ppfs::workload {

struct TraceOp {
  enum class Kind { kRead, kSeek };
  int rank = 0;
  Kind kind = Kind::kRead;
  sim::ByteCount length = 0;    // read
  sim::FileOffset offset = 0;   // seek
  sim::SimTime think = 0;       // post-op compute time (read only)
};

struct AccessTrace {
  pfs::IoMode mode = pfs::IoMode::kRecord;
  int ranks = 1;
  std::vector<TraceOp> ops;  // per-rank order is execution order

  std::string serialize() const;
  static AccessTrace parse(const std::string& text);  // throws on malformed input

  /// Total bytes each rank reads; max determines the file size needed.
  sim::ByteCount max_bytes_per_rank() const;

  // -- generators for common shapes --
  /// Every rank: n sequential reads of `len` with `think` between them.
  static AccessTrace sequential(pfs::IoMode mode, int ranks, int reads_per_rank,
                                sim::ByteCount len, sim::SimTime think);
  /// Every rank scans its own region with a constant forward stride.
  static AccessTrace strided(int ranks, int reads_per_rank, sim::ByteCount len,
                             sim::ByteCount stride, sim::SimTime think);
};

/// Replay a trace on a fresh machine. The backing PFS file is created and
/// patterned large enough for every access. Each rank's ops run in the
/// same reader as Experiment::run's nodes: with `verify` set, reads are
/// verified in every mode, and a read that fails with a FaultError counts
/// as an app error. The result carries every shared counter and the same
/// read figures as Experiment::run: total_bytes, reads, verify_failures,
/// the per-call read latencies, wall_elapsed, mean_read_call_time,
/// observed_read_bw_mbs and wall_bw_mbs.
ExperimentResult replay_trace(const MachineSpec& machine, const AccessTrace& trace,
                              bool prefetch_on, prefetch::PrefetchConfig prefetch_cfg = {},
                              bool verify = false);

}  // namespace ppfs::workload
