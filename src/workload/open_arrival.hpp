// Open-arrival multi-tenant workload: the production-scale counterpart to
// the paper's closed collective loops.
//
// The paper's experiments (Section 4) run closed workloads — every node
// issues its next read the moment the previous one completes, so offered
// load collapses whenever the system slows down. A production file system
// sees the opposite: requests arrive on their own clock (users, batch
// schedulers) whether or not earlier ones finished. Each client here draws
// Poisson interarrival gaps from an independent stream and timestamps every
// request at its *arrival*; when service starts late the lag is accounted
// as backlog instead of silently stretching the arrival process. Tenants
// share the mount: each client is pinned to one of `tenants` files chosen
// by a Zipf draw, so popular tenants contend for the same stripe groups
// while the tail reads cold files — the skewed mix a shared Paragon
// partition actually serves.
//
// Scale discipline: machines are built with MachineConfig::paragon_scaled
// (near-square mesh), all clients share one scratch read buffer (contents
// are never verified), and latencies stream into a fixed-footprint sketch —
// per-run memory stays O(nodes), never O(requests). Tenant files are
// populated with zeros, which the I/O nodes' content stores do not store,
// so they cost no content memory however large they are.
#pragma once

#include <cstdint>
#include <string>

#include "sim/stats.hpp"
#include "workload/experiment.hpp"

namespace ppfs::workload {

struct OpenArrivalSpec {
  /// Distinct tenant files sharing the mount (each striped over every I/O
  /// node). Clients pick their tenant once, by a Zipf(s) draw.
  int tenants = 4;
  double tenant_skew = 1.1;
  /// Requests per compute-node client, each `request_size` bytes at a
  /// uniformly random aligned offset within the tenant file.
  std::uint64_t requests_per_client = 32;
  ByteCount request_size = 64 * 1024;
  /// Mean Poisson interarrival gap per client, seconds of simulated time.
  sim::SimTime mean_interarrival = 0.05;
  /// Bytes per tenant file (rounded down to a request multiple).
  ByteCount tenant_file_size = 4 * 1024 * 1024;
  std::uint64_t seed = 1;
  bool prefetch = false;
  prefetch::PrefetchConfig prefetch_cfg{};
  /// TokenWrite mixed tenancy: fraction of requests that are writes (one
  /// uniform draw per request). 0 keeps the workload read-only — and keeps
  /// the per-client random streams, hence the digest, exactly as before.
  /// Writers fsync before closing so every buffered byte lands.
  double write_fraction = 0;
};

struct OpenArrivalResult : RunCounters {
  OpenArrivalSpec spec;
  int ncompute = 0;
  int nio = 0;

  std::uint64_t issued = 0;
  /// Requests that returned without a FaultError (reads and writes; the
  /// writes among them are RunCounters::writes).
  std::uint64_t completed = 0;
  ByteCount total_bytes = 0;     // read by the application
  sim::SimTime sim_elapsed = 0;  // first arrival -> last completion
  double wall_bw_mbs = 0;
  /// Arrival-to-completion latency sketch (fixed footprint).
  sim::StreamingQuantiles latencies;
  /// Arrivals that found their client still serving the previous request,
  /// and the summed service-start lag they experienced.
  std::uint64_t backlogged = 0;
  sim::SimTime backlog_time = 0;
};

/// Build a paragon_scaled machine from `machine` (its ncompute/nio/raid/pfs
/// knobs), populate the tenant files through the full stack, then run one
/// open-arrival read phase. Deterministic: same spec, same digest. `sink`
/// (may be null) traces the whole run.
OpenArrivalResult run_open_arrival(const MachineSpec& machine, const OpenArrivalSpec& spec,
                                   trace::TraceSink* sink = nullptr);

}  // namespace ppfs::workload
