// The three benchmark workloads. Each builds its inputs from the seed,
// replays the driver's set-up with the same public calls for setup_s, calls
// the driver, and reduces the result to a RunSummary.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "workload/experiment.hpp"
#include "workload/open_arrival.hpp"
#include "workload/write_workload.hpp"

namespace perfbench {

namespace {

namespace pfs = ppfs::pfs;
namespace trace = ppfs::trace;
namespace wl = ppfs::workload;
using ppfs::sim::Simulation;
using ppfs::sim::Task;
using sim::ByteCount;

constexpr ByteCount kKiB = 1024;
constexpr ByteCount kMiB = 1024 * 1024;

/// TraceMetrics::rpc slot of code::kRpcToken spans (codes 4 and 5 are the
/// retry/give-up instants, so the token class is remapped to the fifth slot).
constexpr std::size_t kTokenRpcSlot = 4;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// The drivers' populate loop: open, then 1 MB chunks written through the
/// full stack. `pattern_tag` = 0 writes zeros (the open-arrival driver never
/// verifies, so it skips the fill); otherwise each chunk is fill_pattern'd.
Task<void> populate(pfs::PfsClient& loader, std::string name, std::uint64_t pattern_tag,
                    ByteCount size) {
  const int fd = co_await loader.open(name, pfs::IoMode::kAsync);
  const ByteCount chunk = std::min<ByteCount>(size, kMiB);
  std::vector<std::byte> buf(chunk);
  for (ByteCount off = 0; off < size; off += chunk) {
    const ByteCount n = std::min<ByteCount>(chunk, size - off);
    if (pattern_tag != 0) wl::fill_pattern(pattern_tag, off, std::span(buf).subspan(0, n));
    co_await loader.write(fd, std::span<const std::byte>(buf).subspan(0, n));
  }
  loader.close(fd);
}

void run_to_completion(Simulation& s, std::vector<Task<void>> tasks) {
  bool done = false;
  s.spawn([](Simulation& sm, std::vector<Task<void>> ts, bool& flag) -> Task<void> {
    co_await ppfs::sim::when_all(sm, std::move(ts));
    flag = true;
  }(s, std::move(tasks), done));
  s.run();
  if (!done) throw std::runtime_error("set-up did not complete");
}

std::vector<std::unique_ptr<pfs::PfsClient>> make_clients(pfs::PfsFileSystem& fs, int n) {
  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, n));
  return clients;
}

void check_size(pfs::PfsFileSystem& fs, const std::string& name, ByteCount want) {
  const pfs::PfsFileMeta* f = fs.lookup(name);
  if (f == nullptr || f->size != want) {
    throw std::runtime_error("set-up left " + name + " at the wrong size");
  }
}

/// The exact moments of a latency sketch (never its log2-binned
/// percentiles, which move in whole-bin jumps).
void take_latencies(const ppfs::sim::StreamingQuantiles& q, RunSummary& out) {
  out.lat_sum_s = q.sum();
  out.lat_count = q.count();
  out.lat_max_s = q.max();
}

/// Per-layer values every ExperimentResult carries.
void experiment_layers(const wl::ExperimentResult& r, LayerValues& L) {
  L["sim.events"] = static_cast<double>(r.events_dispatched);
  L["sim.peak_pending"] = static_cast<double>(r.peak_pending_events);
  L["sim.bytes_per_event"] = r.bytes_per_event;
  L["mesh.top_link_busy_s"] = r.top_links.empty() ? 0.0 : r.top_links.front().second;
  L["rpc.data.count"] = static_cast<double>(r.data_rpcs);
  L["rpc.metadata.count"] = static_cast<double>(r.metadata_rpcs);
  L["rpc.pointer.count"] = static_cast<double>(r.pointer_rpcs);
  L["rpc.retries"] = static_cast<double>(r.faults.rpc_retries);
  L["token.rpcs"] = static_cast<double>(r.token_rpcs);
  L["token.revocations"] = static_cast<double>(r.token_revocations);
  L["wb.flush_ops"] = static_cast<double>(r.wb_flush_ops);
  L["wb.flushed_mb"] = static_cast<double>(r.wb_flushed_bytes) / 1e6;
  L["wb.peak_dirty_mb"] = static_cast<double>(r.wb_peak_dirty_bytes) / 1e6;
  L["prefetch.issued"] = static_cast<double>(r.prefetch.issued);
  L["prefetch.hit_ratio"] = r.prefetch.hit_ratio();
  L["prefetch.useful_ratio"] = r.prefetch.useful_ratio();
  L["prefetch.wait_s"] = r.prefetch.wait_time;
}

/// The post-run hook's view of the live mount: mesh link busy time, RAID
/// and member-disk activity, UFS counters.
void hook_layers(pfs::PfsFileSystem& fs, LayerValues& L, HookCounts& h) {
  hw::Machine& m = fs.machine();
  hw::MeshNetwork& mesh = m.mesh();
  double link_busy = 0;
  for (int l = 0; l < 4 * mesh.config().node_count(); ++l) link_busy += mesh.link_busy_time(l);
  h.mesh_sends = mesh.messages();
  h.mesh_bytes = static_cast<double>(mesh.bytes_moved());
  double disk_busy = 0;
  std::size_t disks = 0;
  std::uint64_t disk_runs = 0, coalesced = 0, fastpath_reads = 0;
  for (int io = 0; io < m.io_node_count(); ++io) {
    hw::RaidArray& raid = m.raid(io);
    h.raid_transfers += raid.ops();
    h.raid_bytes += static_cast<double>(raid.bytes_transferred());
    for (std::size_t k = 0; k < raid.member_count(); ++k, ++disks) {
      disk_busy += raid.member(k).busy_time();
    }
    const auto& us = fs.server(io).ufs().stats();
    disk_runs += us.disk_runs;
    coalesced += us.coalesced_blocks;
    fastpath_reads += us.fastpath_reads;
  }
  const double span = m.simulation().now();
  L["mesh.busy_s"] = link_busy;
  L["disk.ops"] = static_cast<double>(h.raid_transfers);
  L["disk.busy_s"] = disk_busy;
  L["disk.util_avg"] = disks && span > 0 ? disk_busy / (static_cast<double>(disks) * span) : 0;
  L["ufs.disk_runs"] = static_cast<double>(disk_runs);
  L["ufs.coalesced_blocks"] = static_cast<double>(coalesced);
  L["ufs.fastpath_reads"] = static_cast<double>(fastpath_reads);
}

LayerShape machine_shape(const hw::MachineConfig& cfg, const HookCounts& hook,
                         ByteCount fallback_send, ByteCount fallback_transfer, bool writes) {
  LayerShape s;
  s.mesh = cfg.mesh;
  s.senders = cfg.compute_nodes;
  s.receivers = cfg.io_nodes;
  s.raid = cfg.raid;
  s.send_bytes = hook.mesh_sends
                     ? static_cast<ByteCount>(hook.mesh_bytes / static_cast<double>(hook.mesh_sends))
                     : fallback_send;
  s.transfer_bytes =
      hook.raid_transfers
          ? static_cast<ByteCount>(hook.raid_bytes / static_cast<double>(hook.raid_transfers))
          : fallback_transfer;
  s.transfer_writes = writes;
  return s;
}

// ---- paper_prefetch --------------------------------------------------------

/// The paper's machine and experiment: 8 compute + 8 I/O nodes, SCSI-8,
/// 64 KB stripe unit across all 8 I/O nodes, M_RECORD 128 KB per node, 25
/// ms compute delay, one-block-ahead prefetch, byte-exact verify. The seed
/// adds a tail of under 1 MB past the 128 MB the readers consume: populating
/// it shifts the platter phase at which the read phase starts.
class PaperPrefetch final : public Workload {
 public:
  explicit PaperPrefetch(std::uint64_t seed) {
    ppfs::sim::Rng rng(seed);
    w_.name = "paper_prefetch";
    w_.mode = pfs::IoMode::kRecord;
    w_.request_size = 128 * kKiB;
    // uniform_int is inclusive; the tail stays under one 1 MB round, so the
    // readers still plan exactly kReadBytes.
    w_.file_size = kReadBytes + rng.uniform_int(0, kTailPageChoices - 1) * 4 * kKiB;
    w_.compute_delay = 0.025;
    w_.prefetch = true;
    w_.prefetch_cfg.depth = 1;
    w_.verify = true;
  }

  const char* name() const override { return "paper_prefetch"; }
  std::size_t input_variants() const override { return 16; }

  std::string sizes_json() const override {
    return "{\"machine\": \"8x8 scsi8\", \"mode\": \"M_RECORD\", \"request_kb\": 128, "
           "\"file_bytes\": " + std::to_string(w_.file_size) + ", \"read_mb\": " +
           std::to_string(kReadBytes / kMiB) +
           ", \"compute_delay_ms\": 25, \"prefetch_depth\": 1, \"stripe_unit_kb\": 64, "
           "\"readers\": 8}";
  }

  void setup() const override {
    Simulation s;
    hw::Machine machine(s, hw::MachineConfig::paragon(machine_.ncompute, machine_.nio,
                                                      machine_.raid));
    pfs::PfsFileSystem fs(machine, machine_.pfs);
    fs.create("shared");
    auto clients = make_clients(fs, machine_.ncompute);
    std::vector<Task<void>> loads;
    loads.push_back(populate(*clients[0], "shared", 1, w_.file_size));
    run_to_completion(s, std::move(loads));
    check_size(fs, "shared", w_.file_size);
  }

  RunSummary run(bool layers) const override { return call(layers, nullptr); }

  bool traceable() const override { return true; }

  RunSummary run_traced() const override {
    trace::TraceSink sink;
    RunSummary out = call(true, &sink);
    const trace::TraceMetrics tm = trace::compute_metrics(trace::snapshot(sink));
    LayerValues& L = out.layers;
    L["trace.records"] = static_cast<double>(sink.size());
    L["mesh.util_peak"] =
        tm.utilization[static_cast<std::size_t>(trace::TraceTrack::kMeshLink)].peak;
    L["rpc.data.p50_ms"] = tm.rpc[trace::code::kRpcData].p50 * 1e3;
    L["rpc.data.p99_ms"] = tm.rpc[trace::code::kRpcData].p99 * 1e3;
    // Always 0 today: this driver runs without write tokens, and the
    // write driver takes no sink.
    L["rpc.token.p99_ms"] = tm.rpc[kTokenRpcSlot].p99 * 1e3;
    L["prefetch.occupancy_avg"] = tm.occupancy.avg_buffers;
    return out;
  }

  double fill_bytes() const override { return static_cast<double>(w_.file_size); }
  double verify_bytes() const override { return static_cast<double>(kReadBytes); }

  LayerShape shape(const HookCounts& hook) const override {
    return machine_shape(hw::MachineConfig::paragon(machine_.ncompute, machine_.nio,
                                                    machine_.raid),
                         hook, w_.request_size, 64 * kKiB, false);
  }

 private:
  /// What the 8 readers consume: 128 rounds of 8 x 128 KB.
  static constexpr ByteCount kReadBytes = 128 * kMiB;
  /// The tail is 0 .. kTailPageChoices - 1 pages of 4 KB.
  static constexpr std::uint64_t kTailPageChoices = 256;

  RunSummary call(bool layers, trace::TraceSink* sink) const {
    RunSummary out;
    const wl::Experiment exp(machine_);
    wl::ExperimentResult r;
    if (layers) {
      r = exp.run(w_, sink, [&out](pfs::PfsFileSystem& fs) {
        hook_layers(fs, out.layers, out.hook);
      });
      experiment_layers(r, out.layers);
    } else {
      r = exp.run(w_);
    }
    out.digest = r.digest;
    out.events = r.events_dispatched;
    out.attempted = r.reads;
    out.failed = r.verify_failures + r.faults.app_errors;
    if (r.total_bytes != kReadBytes) out.failed += 1;
    out.sim_bytes = static_cast<double>(r.total_bytes);
    out.sim_seconds = r.max_node_read_time;
    take_latencies(r.read_latencies, out);
    return out;
  }

  wl::MachineSpec machine_;
  wl::WorkloadSpec w_;
};

// ---- tenant_open -----------------------------------------------------------

/// Open-arrival multi-tenant reads on a 256x64 paragon_scaled machine: 16
/// Zipf(1.1) tenant files of 2 MB, 64 KB requests, no prefetch, no verify,
/// Poisson arrivals below the latency knee. The seed drives the tenant
/// draw, the arrival clocks and the request offsets.
class TenantOpen final : public Workload {
 public:
  explicit TenantOpen(std::uint64_t seed) {
    machine_.ncompute = 256;
    machine_.nio = 64;
    spec_.tenants = 16;
    spec_.tenant_skew = 1.1;
    spec_.requests_per_client = kRequests;
    spec_.request_size = 64 * kKiB;
    spec_.mean_interarrival = kGap;
    spec_.tenant_file_size = 2 * kMiB;
    spec_.seed = seed;
    spec_.prefetch = false;
  }

  const char* name() const override { return "tenant_open"; }
  std::size_t input_variants() const override { return 12; }

  /// Offered load: every client's mean request rate times the request size.
  double offered_mbs() const {
    return machine_.ncompute * static_cast<double>(spec_.request_size) / 1e6 /
           spec_.mean_interarrival;
  }

  std::string sizes_json() const override {
    return "{\"machine\": \"256x64 paragon_scaled scsi8\", \"tenants\": 16, \"zipf_s\": 1.1, "
           "\"tenant_file_mb\": 2, \"request_kb\": 64, \"requests_per_client\": " +
           std::to_string(kRequests) + ", \"mean_interarrival_s\": " + fmt("%g", kGap) +
           ", \"offered_mbs\": " + fmt("%.4f", offered_mbs()) + ", \"prefetch\": false}";
  }

  void setup() const override {
    Simulation s;
    hw::Machine machine(s, hw::MachineConfig::paragon_scaled(machine_.ncompute, machine_.nio,
                                                             machine_.raid));
    pfs::PfsFileSystem fs(machine, machine_.pfs);
    for (int t = 0; t < spec_.tenants; ++t) fs.create("tenant" + std::to_string(t));
    auto clients = make_clients(fs, machine_.ncompute);
    std::vector<Task<void>> loads;
    for (int t = 0; t < spec_.tenants; ++t) {
      loads.push_back(populate(*clients[static_cast<std::size_t>(t % machine_.ncompute)],
                               "tenant" + std::to_string(t), 0, spec_.tenant_file_size));
    }
    run_to_completion(s, std::move(loads));
    for (int t = 0; t < spec_.tenants; ++t) {
      check_size(fs, "tenant" + std::to_string(t), spec_.tenant_file_size);
    }
  }

  RunSummary run(bool layers) const override { return call(spec_, layers); }

  double fill_bytes() const override { return 0; }
  double verify_bytes() const override { return 0; }

  LayerShape shape(const HookCounts& hook) const override {
    return machine_shape(hw::MachineConfig::paragon_scaled(machine_.ncompute, machine_.nio,
                                                           machine_.raid),
                         hook, spec_.request_size, spec_.request_size, false);
  }

  /// Below the knee, latency does not grow with run length: doubling the
  /// requests per client must move the mean latency by less than its bound.
  Check extra_check(const RunSummary& summary) const override {
    wl::OpenArrivalSpec longer = spec_;
    longer.requests_per_client *= 2;
    const RunSummary r = call(longer, false);
    const double lat_mean_s = summary.lat_mean_s();
    const double shift = std::abs(r.lat_mean_s() - lat_mean_s) / lat_mean_s;
    return {r.failed == 0 && shift < kKneeShiftLimit,
            "knee check: offered " + fmt("%.4g", offered_mbs()) + " MB/s, delivered " +
                fmt("%.4g", summary.sim_bw_mbs()) + " MB/s; mean latency " +
                fmt("%.6g", lat_mean_s * 1e3) + " ms at " + std::to_string(kRequests) +
                " requests per client, " + fmt("%.6g", r.lat_mean_s() * 1e3) + " ms at " +
                std::to_string(2 * kRequests) + " (shift " + fmt("%.4f", shift) + ", bound " +
                fmt("%.2f", kKneeShiftLimit) + ")"};
  }

 private:
  static constexpr std::uint64_t kRequests = 64;
  static constexpr double kGap = 0.4;
  /// Largest mean-latency shift, as a share, that still counts as below
  /// the knee. A correctness threshold of its own, not the regression bound
  /// BENCHMARK.json gives sim_lat_mean_ms (which happens to be equal).
  static constexpr double kKneeShiftLimit = 0.05;

  RunSummary call(const wl::OpenArrivalSpec& spec, bool layers) const {
    const wl::OpenArrivalResult r = wl::run_open_arrival(machine_, spec);
    RunSummary out;
    out.digest = r.digest;
    out.events = r.events_dispatched;
    out.attempted = r.issued;
    out.failed = r.issued - std::min(r.issued, r.completed);
    if (r.issued != spec.requests_per_client * static_cast<std::uint64_t>(machine_.ncompute)) {
      out.failed += 1;
    }
    out.sim_bytes = static_cast<double>(r.total_bytes);
    out.sim_seconds = r.sim_elapsed;
    take_latencies(r.latencies, out);
    if (layers) {
      LayerValues& L = out.layers;
      L["sim.events"] = static_cast<double>(r.events_dispatched);
      L["sim.peak_pending"] = static_cast<double>(r.peak_pending_events);
      L["sim.bytes_per_event"] = r.bytes_per_event;
      L["token.rpcs"] = static_cast<double>(r.token_rpcs);
      L["token.revocations"] = static_cast<double>(r.token_revocations);
      L["wb.flush_ops"] = static_cast<double>(r.wb_flush_ops);
      L["wb.flushed_mb"] = static_cast<double>(r.wb_flushed_bytes) / 1e6;
      L["wb.peak_dirty_mb"] = static_cast<double>(r.wb_peak_dirty_bytes) / 1e6;
      L["load.backlog_frac"] =
          r.issued ? static_cast<double>(r.backlogged) / static_cast<double>(r.issued) : 0;
    }
    return out;
  }

  wl::MachineSpec machine_;
  wl::OpenArrivalSpec spec_;
};

// ---- checkpoint_write ------------------------------------------------------

/// TokenWrite checkpoint on the paper's machine: 8 writers, own slots, 256
/// KB records, fsync every round, cross-client read-back verified byte-exact,
/// barriers between rounds. The seed sets the compute phase between rounds.
class CheckpointWrite final : public Workload {
 public:
  explicit CheckpointWrite(std::uint64_t seed) {
    spec_.kind = wl::WriteWorkloadKind::kCheckpoint;
    spec_.writers = 8;
    spec_.request_size = 256 * kKiB;
    spec_.rounds = kRounds;
    spec_.conflicting = false;
    spec_.verify = true;
    spec_.fsync_each_round = true;
    ppfs::sim::Rng rng(seed);
    spec_.compute_delay = rng.uniform(kDelayLo, kDelayHi);
  }

  const char* name() const override { return "checkpoint_write"; }

  std::string sizes_json() const override {
    return "{\"machine\": \"8x8 scsi8\", \"writers\": 8, \"record_kb\": 256, \"rounds\": " +
           std::to_string(kRounds) + ", \"fsync_each_round\": true, \"compute_delay_ms\": " +
           fmt("%.6f", spec_.compute_delay * 1e3) + "}";
  }

  void setup() const override {
    const wl::MachineSpec& m = spec_.machine;
    Simulation s;
    hw::Machine machine(s, hw::MachineConfig::paragon(m.ncompute, m.nio, m.raid));
    pfs::PfsParams params = m.pfs;
    params.write_tokens = true;
    pfs::PfsFileSystem fs(machine, params);
    fs.create("ckpt");
    auto clients = make_clients(fs, spec_.writers);
    check_size(fs, "ckpt", 0);
  }

  RunSummary run(bool layers) const override {
    const wl::ExperimentResult r = wl::run_write_workload(spec_);
    RunSummary out;
    out.digest = r.digest;
    out.events = r.events_dispatched;
    out.attempted = r.writes + r.reads;
    out.failed = r.verify_failures + r.faults.app_errors;
    const std::uint64_t expected = spec_.rounds * static_cast<std::uint64_t>(spec_.writers);
    if (r.writes != expected || r.reads != expected) out.failed += 1;
    out.sim_bytes = static_cast<double>(r.bytes_written);
    out.sim_seconds = r.wall_elapsed;
    take_latencies(r.read_latencies, out);
    if (layers) experiment_layers(r, out.layers);
    return out;
  }

  double fill_bytes() const override {
    return static_cast<double>(spec_.request_size) * static_cast<double>(spec_.rounds) *
           spec_.writers;
  }
  double verify_bytes() const override { return fill_bytes(); }

  LayerShape shape(const HookCounts& hook) const override {
    const wl::MachineSpec& m = spec_.machine;
    return machine_shape(hw::MachineConfig::paragon(m.ncompute, m.nio, m.raid), hook,
                         spec_.request_size, 64 * kKiB, true);
  }

 private:
  static constexpr std::uint64_t kRounds = 64;
  static constexpr double kDelayLo = 0.001;
  static constexpr double kDelayHi = 0.003;

  wl::WriteWorkloadSpec spec_;
};

}  // namespace

const std::vector<std::string> kWorkloadNames = {"paper_prefetch", "tenant_open",
                                                 "checkpoint_write"};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_prefetch") return std::make_unique<PaperPrefetch>(seed);
  if (name == "tenant_open") return std::make_unique<TenantOpen>(seed);
  if (name == "checkpoint_write") return std::make_unique<CheckpointWrite>(seed);
  return nullptr;
}

}  // namespace perfbench
