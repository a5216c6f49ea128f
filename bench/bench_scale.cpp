// ScaleSim: machine-size scaling of the open-arrival multi-tenant workload,
// plus the kernel's loop and deep-backlog microbenches.
//
// Not a paper figure — the paper stops at 8 compute + 8 I/O nodes. This
// harness is the production-scale counterpart: it sweeps the machine from
// the paper's 8x8 up to 1024x256 (near-square scaled mesh, sharded per-node
// arenas, streaming statistics) and reports, per row, the host-side cost of
// simulating it — events/sec and kernel bytes/event — next to the simulated
// service quality (p50/p95 open-arrival latency, backlog). The memory-lean
// contract is that bytes/event stays flat as the machine and the run grow.
//
// The kernel section times bench_kernel_micro's EventQueueThroughput and
// CoroutineDelayHops loop shapes, best of N repetitions. A deep-queue
// section pushes 10^5..10^7 pending events (times on a 1 us grid over one
// second, so ten or more share each time at 10^7) into a bare EventQueue
// and drains it, checking the (time, seq) drain order and recording the
// radix queue's rate and memory at production backlog depths.
//
// Gated: every machine row completes every request with no app errors.
// On the full run each machine row must also sustain >= 50k events/s
// with <= 512 kernel bytes/event, and each kernel loop >= 250k events/s.
//
// --quick keeps the two small rows, short kernel loops and the 10^5/10^6
// queue depths (CI smoke); the full run adds 256x64, 1024x256 and the
// 10^7 depth.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "workload/open_arrival.hpp"

namespace {

using namespace ppfs;
using bench::BenchArgs;
using bench::JsonArray;
using bench::JsonObject;

constexpr double kMinRowEventsPerSec = 50000;
constexpr double kMaxRowBytesPerEvent = 512;
constexpr double kMinKernelEventsPerSec = 250000;

struct ScaleRow {
  const char* name;
  int ncompute;
  int nio;
  int tenants;
  std::uint64_t requests_per_client;
  bool full_only;  // skipped with --quick (the production-scale rows)
};

constexpr ScaleRow kScaleRows[] = {
    {"8x8", 8, 8, 4, 32, false},        // the paper's machine
    {"64x16", 64, 16, 8, 16, false},    // a full cabinet
    {"256x64", 256, 64, 16, 8, true},   // multi-cabinet
    {"1024x256", 1024, 256, 32, 8, true},  // production scale
};

workload::MachineSpec scale_machine(const ScaleRow& row) {
  workload::MachineSpec m;
  m.ncompute = row.ncompute;
  m.nio = row.nio;
  return m;
}

workload::OpenArrivalSpec scale_spec(const ScaleRow& row, bool quick) {
  workload::OpenArrivalSpec s;
  s.tenants = row.tenants;
  s.requests_per_client = quick ? row.requests_per_client / 2 : row.requests_per_client;
  if (s.requests_per_client == 0) s.requests_per_client = 1;
  s.request_size = 64 * 1024;
  // 2 MB per tenant bounds the host-side content store (32 tenants at the
  // 1024x256 row is 64 MB) while still giving 32 distinct request offsets.
  s.tenant_file_size = 2 * 1024 * 1024;
  s.mean_interarrival = 0.05;
  s.seed = 42;
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct KernelRow {
  std::string name;
  std::uint64_t events = 0;  // per repetition
  double best_seconds = 0;
  double events_per_sec = 0;
};

/// Time `body` (which returns the events it dispatched) `reps` times and
/// keep the best repetition.
template <class Body>
KernelRow best_of(std::string name, int reps, Body body) {
  KernelRow row;
  row.name = std::move(name);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    row.events = body();
    best = std::min(best, seconds_since(t0));
  }
  row.best_seconds = best;
  row.events_per_sec = static_cast<double>(row.events) / best;
  return row;
}

/// BM_EventQueueThroughput's body: n callbacks over 97 distinct times,
/// pushed then drained on a fresh Simulation.
std::uint64_t event_throughput(int n) {
  sim::Simulation sim;
  int fired = 0;
  for (int i = 0; i < n; ++i) {
    sim.call_at(static_cast<double>(i % 97), [&fired] { ++fired; });
  }
  sim.run();
  if (fired != n) {
    std::fprintf(stderr, "error: event_throughput dropped callbacks\n");
    std::exit(1);
  }
  return sim.events_dispatched();
}

sim::Task<void> hop(sim::Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

/// BM_CoroutineDelayHops's body: 100 processes x `hops` delay hops.
std::uint64_t delay_hops(int hops) {
  sim::Simulation sim;
  for (int p = 0; p < 100; ++p) sim.spawn(hop(sim, hops));
  sim.run();
  return sim.events_dispatched();
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
    // ~1 second horizon on a 1us grid: n >> 1e6 puts many events on each time.
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
  bench::Gate gate(!args.quick);

  std::printf("=============================================================\n");
  std::printf("ScaleSim: open-arrival machine-size scaling (8x8 -> 1024x256)\n");
  std::printf("Memory-lean contract: kernel bytes/event stays flat with scale\n");
  std::printf("=============================================================\n\n");

  // --- machine-size rows ---
  std::printf("%-10s %9s %8s %12s %11s %9s %9s %9s %8s\n", "machine", "requests",
              "backlog", "events", "events/sec", "B/event", "p50", "p95", "host-s");
  JsonArray rows;
  struct Measured {
    std::string name;
    bool complete;
    double events_per_sec;
    double bytes_per_event;
  };
  std::vector<Measured> measured;
  for (const ScaleRow& row : kScaleRows) {
    if (args.quick && row.full_only) continue;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = workload::run_open_arrival(scale_machine(row), scale_spec(row, args.quick));
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
    }
    measured.push_back({row.name, r.completed == r.issued && r.faults.app_errors == 0, eps,
                        r.bytes_per_event});
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
  std::printf("\n");
  for (const Measured& m : measured) {
    gate.check(m.name + ": every request completed, no app errors", m.complete);
    gate.at_least(m.name + ": events/s", m.events_per_sec, kMinRowEventsPerSec);
    gate.at_most(m.name + ": kernel bytes/event", m.bytes_per_event, kMaxRowBytesPerEvent);
  }

  // --- kernel loops ---
  const int reps = args.quick ? 3 : 7;
  const int n = args.quick ? 20000 : 100000;
  const int hops = args.quick ? 20 : 100;
  const KernelRow kernel_rows[] = {
      best_of("event_throughput/" + std::to_string(n), reps,
              [n] { return event_throughput(n); }),
      best_of("delay_hops/" + std::to_string(hops), reps,
              [hops] { return delay_hops(hops); }),
  };
  std::printf("\nkernel loops (bench_kernel_micro's shapes, best of %d)\n", reps);
  JsonArray kernel;
  for (const KernelRow& k : kernel_rows) {
    std::printf("%-24s %9" PRIu64 " events  %12.3g events/sec\n", k.name.c_str(), k.events,
                k.events_per_sec);
    JsonObject o;
    o.field("name", k.name)
        .field("events", k.events)
        .field("repetitions", reps)
        .field("best_seconds", k.best_seconds)
        .field("events_per_sec", k.events_per_sec);
    kernel.add(o);
  }
  std::printf("\n");
  for (const KernelRow& k : kernel_rows) {
    gate.at_least(k.name + ": events/s", k.events_per_sec, kMinKernelEventsPerSec);
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
    JsonObject doc = bench::bench_doc("scale", args.quick);
    gate.stamp(doc);
    doc.raw("rows", rows.str()).raw("kernel", kernel.str()).raw("deep_queue", deep.str());
    bench::write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
