// Shared declarations of the repository benchmark (README.md describes the
// workloads and every metric).
//
// The benchmark drives the simulator only through its public drivers
// (workload::Experiment::run, workload::run_open_arrival,
// workload::run_write_workload) and measures layers only from outside: the
// drivers' result structs, the Experiment post-run hook's view of the live
// mount, a separate traced run, and host timing of each layer's public calls
// on standalone loops (layers.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/mesh.hpp"
#include "hw/raid.hpp"

namespace perfbench {

namespace hw = ppfs::hw;
namespace sim = ppfs::sim;

/// Host wall clock, seconds (steady).
double now_s();
/// Host seconds of a kind of call: the fastest one. The program is
/// deterministic and single-threaded, so host noise (other tenants of a
/// shared machine slow whole stretches of a run) only ever adds time.
double fastest(const std::vector<double>& secs);

/// One per-layer metric of the catalogue. Every workload reports every
/// entry; a layer the workload's driver does not expose reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

using LayerValues = std::map<std::string, double>;

/// Work counts the post-run hook exposes, used to turn standalone per-call
/// host costs into an estimate of the layer's share of a driver call.
struct HookCounts {
  std::uint64_t mesh_sends = 0;
  double mesh_bytes = 0;
  std::uint64_t raid_transfers = 0;
  double raid_bytes = 0;
};

/// One driver call reduced to what the benchmark checks and reports.
struct RunSummary {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t attempted = 0;  // operations: read calls, requests, write+fsync rounds + read-backs
  std::uint64_t failed = 0;     // verify failures, app errors, never-completed requests
  double sim_bytes = 0;         // simulated bandwidth = bytes / seconds, kept apart
  double sim_seconds = 0;       // so a run can pool it over inputs
  double lat_sum_s = 0;         // per-operation latency: exact sum, count, max
  std::uint64_t lat_count = 0;
  double lat_max_s = 0;

  double sim_bw_mbs() const { return sim_seconds > 0 ? sim_bytes / 1e6 / sim_seconds : 0; }
  double lat_mean_s() const { return lat_count ? lat_sum_s / static_cast<double>(lat_count) : 0; }
  LayerValues layers;           // filled when the caller asks for layers
  HookCounts hook;              // zero when the driver has no post-run hook
};

/// Shape of the standalone layer loops: the workload's own mesh, RAID
/// preset, and mean message / transfer sizes.
struct LayerShape {
  hw::MeshConfig mesh;
  std::vector<int> senders;    // compute-node mesh ids
  std::vector<int> receivers;  // I/O-node mesh ids
  sim::ByteCount send_bytes = 0;
  hw::RaidParams raid;
  sim::ByteCount transfer_bytes = 0;
  bool transfer_writes = false;  // the workload's disk traffic is mostly writes
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Input variants a run cycles through: more where one input's figures
  /// swing more (a single cold read's platter phase sets paper_prefetch's
  /// maximum latency; the slowest of 256 Poisson clients sets the span
  /// tenant_open's bandwidth divides by).
  virtual std::size_t input_variants() const { return 6; }
  /// Workload sizes as a JSON object, for the provenance line.
  virtual std::string sizes_json() const = 0;
  /// Build the machine and populate the files with the same public calls
  /// the driver makes. Throws when the populated state is wrong.
  virtual void setup() const = 0;
  /// One complete driver call. With `layers` the summary also carries the
  /// per-layer values the result struct and post-run hook expose.
  virtual RunSummary run(bool layers) const = 0;
  /// A traced driver call (per-layer values include the trace metrics);
  /// only drivers that take a trace sink support it.
  virtual bool traceable() const { return false; }
  virtual RunSummary run_traced() const { return run(true); }
  /// Bytes the workload's pattern fill and verify touch in one call.
  virtual double fill_bytes() const = 0;
  virtual double verify_bytes() const = 0;
  virtual LayerShape shape(const HookCounts& hook) const = 0;
  /// A check beyond the per-call ones, given this workload's own summary;
  /// `note` says what it measured.
  struct Check {
    bool ok = true;
    std::string note;
  };
  virtual Check extra_check(const RunSummary& summary) const {
    (void)summary;
    return {};
  }
};

/// The workload catalogue, in the order `--workload all` runs it.
extern const std::vector<std::string> kWorkloadNames;
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

// ---- standalone layer loops (layers.cpp) ----------------------------------

/// Host cost of one layer call measured on a standalone loop: wall ns per
/// call, and the kernel events each call dispatched (so a caller can swap
/// those events' bare-kernel cost for the call's measured cost).
struct CallCost {
  double ns_per_call = 0;
  double events_per_call = 0;
};

/// Bare kernel: host ns per dispatched event of a call_at + spawn/delay loop.
double kernel_ns_per_event();
/// MeshNetwork::send on the workload's mesh, senders contending as in the
/// workload.
CallCost mesh_send_cost(const LayerShape& shape);
/// RaidArray::transfer on the workload's RAID preset, four streams.
CallCost raid_transfer_cost(const LayerShape& shape);
/// Host ns per byte of workload::fill_pattern / find_pattern_mismatch.
double fill_ns_per_byte();
double verify_ns_per_byte();

}  // namespace perfbench
