// ScaleSim: machine-size scaling of the open-arrival multi-tenant workload,
// plus the kernel's deep-backlog microbench.
//
// Not a paper figure — the paper stops at 8 compute + 8 I/O nodes. This
// harness is the production-scale counterpart: it sweeps the machine from
// the paper's 8x8 up to 1024x256 (near-square scaled mesh, sharded per-node
// arenas, streaming statistics) and reports, per row, the host-side cost of
// simulating it — events/sec and kernel bytes/event — next to the simulated
// service quality (p50/p95 open-arrival latency, backlog). The memory-lean
// contract is that bytes/event stays flat as the machine and the run grow.
//
// A deep-queue section pushes 10^5..10^7 pending events (quantized times,
// so tie buckets absorb most of them) through a bare EventQueue and drains
// it, verifying the tie-batched heap degrades gracefully at production
// backlog depths.
//
// --quick keeps the two small rows and the 10^5/10^6 queue depths (CI
// smoke); the full run adds 256x64, 1024x256 and the 10^7 depth.
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ppfs;
using bench::BenchArgs;
using bench::JsonArray;
using bench::JsonObject;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Push `n` events with microsecond-quantized pseudo-random times, then
/// drain; returns (push+drain) events/sec. Quantization is the realistic
/// tie profile — lock-step nodes schedule waves at identical instants.
struct DeepQueueRow {
  std::uint64_t depth = 0;
  double events_per_sec = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t memory_bytes = 0;
  double bytes_per_pending = 0;
};

DeepQueueRow deep_queue(std::uint64_t n) {
  sim::EventQueue q;
  sim::Rng rng(7);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    // ~1 second horizon on a 1us grid: n >> 1e6 forces deep tie buckets.
    const double t = static_cast<double>(rng.uniform_int(0, 1000000)) * 1e-6;
    q.push(t, i, std::coroutine_handle<>{});
  }
  sim::SimTime last = 0;
  std::uint64_t last_seq = 0;
  while (!q.empty()) {
    const auto e = q.pop();
    // Drain order is the kernel's contract: nondecreasing time, ties by seq.
    if (e.t < last || (e.t == last && e.seq < last_seq)) {
      std::fprintf(stderr, "error: deep-queue drain out of order\n");
      std::exit(1);
    }
    last = e.t;
    last_seq = e.seq;
  }
  const double secs = seconds_since(t0);
  DeepQueueRow row;
  row.depth = n;
  row.events_per_sec = secs > 0 ? static_cast<double>(2 * n) / secs : 0;
  row.peak_pending = q.peak_pending();
  row.memory_bytes = q.memory_bytes();
  row.bytes_per_pending =
      row.peak_pending ? static_cast<double>(row.memory_bytes) /
                             static_cast<double>(row.peak_pending)
                       : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::parse_bench_args(argc, argv);

  std::printf("=============================================================\n");
  std::printf("ScaleSim: open-arrival machine-size scaling (8x8 -> 1024x256)\n");
  std::printf("Memory-lean contract: kernel bytes/event stays flat with scale\n");
  std::printf("=============================================================\n\n");

  // --- machine-size rows ---
  std::printf("%-10s %9s %8s %12s %11s %9s %9s %9s %8s\n", "machine", "requests",
              "backlog", "events", "events/sec", "B/event", "p50", "p95", "host-s");
  JsonArray rows;
  bool ok = true;
  for (std::size_t i = 0; i < bench::kScaleRowCount; ++i) {
    const auto& row = bench::kScaleRows[i];
    if (args.quick && row.full_only) continue;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r =
        workload::run_open_arrival(bench::scale_machine(row), bench::scale_spec(row, args.quick));
    const double secs = seconds_since(t0);
    const double eps = secs > 0 ? static_cast<double>(r.events_dispatched) / secs : 0;
    std::printf("%-10s %9" PRIu64 " %8" PRIu64 " %12" PRIu64 " %11.3g %9.1f %9s %9s %8.2f\n",
                row.name, r.completed, r.backlogged, r.events_dispatched, eps,
                r.bytes_per_event, workload::fmt_time(r.latencies.median()).c_str(),
                workload::fmt_time(r.latencies.percentile(95)).c_str(), secs);
    if (r.completed != r.issued || r.faults.app_errors != 0) {
      std::fprintf(stderr, "error: %s: %" PRIu64 "/%" PRIu64 " completed, %" PRIu64
                           " app errors\n",
                   row.name, r.completed, r.issued, r.faults.app_errors);
      ok = false;
    }
    JsonObject o;
    o.field("machine", row.name)
        .field("ncompute", row.ncompute)
        .field("nio", row.nio)
        .field("tenants", row.tenants)
        .field("issued", r.issued)
        .field("completed", r.completed)
        .field("backlogged", r.backlogged)
        .field("events", r.events_dispatched)
        .field("events_per_sec", eps)
        .field("bytes_per_event", r.bytes_per_event)
        .field("peak_pending_events", r.peak_pending_events)
        .field("event_queue_bytes", r.event_queue_bytes)
        .field("frame_arena_bytes", r.frame_arena_bytes)
        .field("machine_state_bytes", r.machine_state_bytes)
        .field("latency_p50", r.latencies.median())
        .field("latency_p95", r.latencies.percentile(95))
        .field("latency_max", r.latencies.max())
        .field("backlog_time", r.backlog_time)
        .field("wall_bw_mbs", r.wall_bw_mbs)
        .field("digest", bench::fmt_digest(r.digest))
        .field("seconds", secs);
    rows.add(o);
  }

  // --- deep-queue backlog ---
  std::printf("\ndeep-queue backlog (bare EventQueue, 1us tie grid)\n");
  std::printf("%-10s %12s %12s %12s\n", "depth", "events/sec", "mem", "B/pending");
  JsonArray deep;
  const std::uint64_t depths_quick[] = {100000, 1000000};
  const std::uint64_t depths_full[] = {100000, 1000000, 10000000};
  const auto* depths = args.quick ? depths_quick : depths_full;
  const std::size_t ndepths = args.quick ? 2 : 3;
  for (std::size_t i = 0; i < ndepths; ++i) {
    const auto row = deep_queue(depths[i]);
    std::printf("%-10" PRIu64 " %12.3g %12s %12.1f\n", row.depth, row.events_per_sec,
                workload::fmt_bytes(row.memory_bytes).c_str(), row.bytes_per_pending);
    JsonObject o;
    o.field("depth", row.depth)
        .field("events_per_sec", row.events_per_sec)
        .field("peak_pending", row.peak_pending)
        .field("memory_bytes", row.memory_bytes)
        .field("bytes_per_pending", row.bytes_per_pending);
    deep.add(o);
  }

  if (!args.json_path.empty()) {
    JsonObject doc;
    doc.field("bench", "scale")
        .field("quick", args.quick)
        .raw("rows", rows.str())
        .raw("deep_queue", deep.str());
    bench::write_json_file(args.json_path, doc.str());
  }
  return ok ? 0 : 1;
}
