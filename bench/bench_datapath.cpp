// Data-path throughput ablation: mesh MTU segmentation x extent-coalesced
// RPCs x server-side batch sweeps, on the Table-4 stripe-group layouts.
// The machine uses SCSI-16 I/O nodes (the paper's 16 MB/s variant): on
// SCSI-8 the 4 MB/s bus is the hard ceiling — legacy circuit mode already
// saturates it, so no data-path change can move the number — while on
// SCSI-16 the disks and the request stream are the binding constraint and
// the three stages have something real to remove.
//
// The gated row is the 8x8 configuration — M_RECORD with full-stripe
// 512K records (8 slots x 64K stripe unit) striped across all 8 I/O
// nodes — where arrival-order seeks, per-extent control traffic, and
// circuit-held routes all cost at once. Both all-stages-on rows (mtu=4K
// and mtu=16K) must beat legacy by >= 1.5x there on the full grid, and
// --jobs N > 1 must reproduce every serial digest. The narrow layout
// (8 ways on ONE I/O node) and the 1M rows ride along as context:
// narrow's single closed prefetch loop cannot keep enough RPCs in
// flight to feed large sweeps, and at 1M the legacy baseline is already
// fairly sequential, so both wins are smaller.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace ppfs;
using namespace ppfs::bench;

/// All three stages together vs legacy, on 8x8 sgroup=8 with 512K records.
constexpr double kMinAllOnSpeedup = 1.5;

struct StageConfig {
  const char* name;
  sim::ByteCount mtu = 0;
  bool coalesce = false;
  bool batch = false;
};

MachineSpec with_stages(const StageConfig& c) {
  MachineSpec m;
  // SCSI-16 I/O nodes: see the header comment — on SCSI-8 the bus, not
  // the data path, caps every row at the same number.
  m.raid = hw::RaidParams::scsi16();
  m.mesh_mtu = c.mtu;
  m.pfs.coalesce_rpcs = c.coalesce;
  m.pfs.server_batch = c.batch;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("Data path: MTU segmentation x RPC coalescing x server batching",
         "Tab. 4 layouts on SCSI-16 I/O nodes (M_RECORD, prefetch ON, "
         "sgroup=1 vs sgroup=8)",
         "each stage helps most where the route/control/disk bottleneck it "
         "removes dominates; all three together >= 1.5x on the 8x8 "
         "(sgroup=8, full-stripe 512K records) configuration");

  const StageConfig stages[] = {
      {"legacy"},
      {"mtu=4K", 4 * 1024},
      {"mtu=16K", 16 * 1024},
      {"coalesce", 0, true},
      {"batch", 0, false, true},
      {"coalesce+batch", 0, true, true},
      {"all mtu=4K", 4 * 1024, true, true},
      {"all mtu=16K", 16 * 1024, true, true},
  };
  constexpr std::size_t kStageCount = sizeof stages / sizeof stages[0];

  const std::vector<sim::ByteCount> sizes =
      args.quick ? std::vector<sim::ByteCount>{512 * 1024}
                 : std::vector<sim::ByteCount>{512 * 1024, 1024 * 1024};
  const int rounds = args.quick ? 2 : 4;
  const int n = MachineSpec{}.ncompute;

  // sgroup=1: 8-way striping across I/O node 0 only (Table 4's narrow
  // layout); sgroup=8: across all I/O nodes.
  pfs::StripeAttrs narrow;
  narrow.stripe_unit = 64 * 1024;
  narrow.stripe_group.assign(8, 0);
  pfs::StripeAttrs wide;
  wide.stripe_unit = 64 * 1024;
  wide.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};

  std::vector<exp::SweepJob> jobs;
  for (auto req : sizes) {
    WorkloadSpec base;
    base.mode = pfs::IoMode::kRecord;
    base.request_size = req;
    base.file_size = file_size_for(req, n, rounds);
    base.prefetch = true;
    for (const auto layout : {&narrow, &wide}) {
      const bool is_narrow = layout == &narrow;
      auto w = base;
      w.attrs = *layout;
      for (const StageConfig& s : stages) {
        jobs.push_back({fmt_bytes(req) + (is_narrow ? " sgroup=1 " : " sgroup=8 ") + s.name,
                        with_stages(s), w});
      }
    }
  }

  Gate gate(!args.quick);
  const auto grid = run_grid(jobs, args.jobs, gate);
  const auto& report = grid.serial;
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Request", "Layout", "Stage config", "Read B/W (MB/s)", "vs legacy",
                   "Events/s", "Coalesced", "Sweeps"});
  JsonArray rows;
  // The lower all-on vs legacy ratio on the gated scenario: 8x8 sgroup=8
  // with full-stripe 512K records.
  double min_all_on_speedup = 0;
  std::size_t idx = 0;
  for (auto req : sizes) {
    for (const char* layout : {"sgroup=1", "sgroup=8"}) {
      const bool gated = std::string(layout) == "sgroup=8" && req == 512 * 1024;
      double legacy_bw = 0;
      for (std::size_t s = 0; s < kStageCount; ++s, ++idx) {
        const auto& o = report.outcomes[idx];
        const auto& r = o.result;
        const double events_per_sec =
            o.seconds > 0 ? static_cast<double>(r.events_dispatched) / o.seconds : 0;
        if (s == 0) legacy_bw = r.observed_read_bw_mbs;
        if (gated && stages[s].mtu > 0 && stages[s].coalesce && stages[s].batch) {
          const double speedup = r.observed_read_bw_mbs / legacy_bw;
          min_all_on_speedup =
              min_all_on_speedup == 0 ? speedup : std::min(min_all_on_speedup, speedup);
        }
        table.add_row({fmt_bytes(req), layout, stages[s].name,
                       fmt_double(r.observed_read_bw_mbs, 2),
                       fmt_double(r.observed_read_bw_mbs / legacy_bw, 2) + "x",
                       fmt_double(events_per_sec / 1e6, 2) + "M",
                       std::to_string(r.coalesced_rpcs),
                       std::to_string(r.server_batch_sweeps)});
        JsonObject row = outcome_json(o);
        row.field("request_bytes", static_cast<std::uint64_t>(req))
            .field("layout", layout)
            .field("stage", stages[s].name)
            .field("mesh_mtu", static_cast<std::uint64_t>(stages[s].mtu))
            .field("coalesce", stages[s].coalesce)
            .field("server_batch", stages[s].batch)
            .field("events_per_sec", events_per_sec)
            .field("coalesced_rpcs", r.coalesced_rpcs)
            .field("coalesced_extents", r.coalesced_extents)
            .field("stripe_map_refreshes", r.stripe_map_refreshes)
            .field("mesh_segments", r.mesh_segments)
            .field("batch_sweeps", r.server_batch_sweeps)
            .field("batched_extents", r.server_batched_extents)
            .field("speedup_vs_legacy", r.observed_read_bw_mbs / legacy_bw);
        rows.add(row);
      }
      table.add_rule();
    }
  }
  std::cout << "\n" << table.str() << "\n";
  gate.at_least("all-on vs legacy, 8x8 sgroup=8 512K (lower row)",
                min_all_on_speedup, kMinAllOnSpeedup);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("datapath", args.quick);
    grid.stamp(doc);
    gate.stamp(doc);
    doc.field("table4_all_on_speedup", min_all_on_speedup).raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
