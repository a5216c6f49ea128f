// Derived metrics computed from the raw trace records — the same records
// the exporters write, so the report and the trace can never disagree.
//
//  * per-resource utilization timelines: span busy-time bucketed over the
//    run, aggregated per track (mesh links, disks, server sweeps);
//  * RPC latency histograms: log2 (microsecond) buckets per RPC class plus
//    exact p50/p95/p99/max from the recorded envelopes;
//  * prefetch-buffer occupancy stats from the occupancy counter samples.
//
// Cold path only (post-run). Percentiles are exact, read off the sorted
// envelope latencies here, so ppfs_trace links nothing from sim/ (which
// links it).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace ppfs::trace {

struct TrackUtilization {
  std::int32_t resources = 0;       // distinct resource instances seen
  std::uint64_t spans = 0;          // completed spans
  double busy_s = 0.0;              // total busy time across resources
  double avg = 0.0;                 // mean busy fraction over run x resources
  double peak = 0.0;                // max per-resource per-bucket fraction
  std::vector<double> buckets;      // per-bucket busy fraction (track mean)
};

struct LatencyStats {
  std::uint64_t count = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
  // log2 histogram: bucket k counts latencies in [2^k, 2^(k+1)) microseconds
  // (bucket 0 also catches < 1us).
  std::array<std::uint64_t, 32> log2_us{};
};

struct OccupancyStats {
  std::uint64_t samples = 0;
  std::uint64_t min_buffers = 0, max_buffers = 0;
  double avg_buffers = 0.0;
  std::uint64_t max_bytes = 0;
  double avg_bytes = 0.0;
};

struct TraceMetrics {
  double t_end = 0.0;
  std::uint64_t kernel_dispatches = 0;
  // Utilization for the capacity-bounded tracks; indexed by TraceTrack.
  std::array<TrackUtilization, kTrackCount> utilization;
  // RPC latency by class: kRpcData..kRpcCoalesced at their code values,
  // kRpcToken in the fifth slot (codes 4/5 are the retry/give-up instants).
  std::array<LatencyStats, 5> rpc;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_give_ups = 0;
  OccupancyStats occupancy;
};

TraceMetrics compute_metrics(const std::vector<TraceRecord>& records, int buckets = 16);

// Render as the "trace metrics" report section (multi-line, trailing \n).
std::string format_metrics(const TraceMetrics& m);

}  // namespace ppfs::trace
