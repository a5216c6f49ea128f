// AdaptaFetch ablation: fixed one-ahead prefetch (the paper's prototype)
// vs a fixed deeper pipeline vs the feedback-driven adaptive controller
// over the pattern-aware predictor ensemble, across three access shapes:
//
//   sequential  the paper's 8x8 M_RECORD interleave — mode-aware one-ahead
//               already predicts perfectly, so the only headroom is pipeline
//               depth: the controller must ramp to keep several stripes in
//               flight across the I/O nodes during the compute gaps.
//   strided     M_ASYNC self-scheduled stride-4 scan — the mode-aware
//               predictor declines async files entirely, so the fixed
//               configs degenerate to no-prefetch and only the ensemble's
//               stride detector can overlap anything.
//   listio      M_ASYNC list-I/O frames (gapped extent bursts) — a
//               repeating non-constant delta cycle that defeats both the
//               mode-aware and single-stride predictors; the list-I/O
//               period detector is the only member that locks on.
//
// Gated on the full grid: adaptive beats fixed-1 by >= 1.15x on the
// sequential row and >= 1.3x on the worst pattern row, while keeping the
// useful-prefetch ratio >= 0.8 (speculation must pay for itself, not just
// spray buffers). The --quick grid is too short for the controller to
// ramp (1.13x sequential, 0.76 useful), so it gates only the digests:
// with --jobs N > 1 every scenario, adaptive depth included, must
// reproduce its serial digest.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace ppfs;
using namespace ppfs::bench;

constexpr double kMinSequentialSpeedup = 1.15;
constexpr double kMinPatternSpeedup = 1.3;
constexpr double kMinUsefulRatio = 0.8;

struct AdaptaConfig {
  const char* name;
  std::size_t depth;   // fixed readahead depth (starting depth when adaptive)
  bool adaptive;       // AdaptaFetch controller + ensemble predictor
};

constexpr AdaptaConfig kAdaptaConfigs[] = {
    {"fixed-1", 1, false},   // the paper's one-ahead prototype
    {"fixed-4", 4, false},   // deeper but still open-loop
    {"adaptive", 1, true},   // feedback-driven, ensemble, max depth 8
};
constexpr std::size_t kAdaptaConfigCount =
    sizeof kAdaptaConfigs / sizeof kAdaptaConfigs[0];

struct AdaptaRow {
  const char* name;
  workload::AccessPattern pattern;
  pfs::IoMode mode;
  sim::SimTime compute_delay;
  std::uint64_t reads_per_node;   // full run; --quick halves this
};

constexpr AdaptaRow kAdaptaRows[] = {
    {"sequential", workload::AccessPattern::kInterleaved, pfs::IoMode::kRecord,
     0.002, 64},
    {"strided", workload::AccessPattern::kStrided, pfs::IoMode::kAsync, 0.004, 64},
    {"listio", workload::AccessPattern::kListIo, pfs::IoMode::kAsync, 0.004, 64},
};
constexpr std::size_t kAdaptaRowCount = sizeof kAdaptaRows / sizeof kAdaptaRows[0];

workload::WorkloadSpec adapta_spec(const AdaptaRow& row, const AdaptaConfig& cfg,
                                   bool quick) {
  constexpr sim::ByteCount kReq = 64 * 1024;
  const int n = workload::MachineSpec{}.ncompute;
  const std::uint64_t reads = quick ? row.reads_per_node / 2 : row.reads_per_node;

  workload::WorkloadSpec w;
  w.mode = row.mode;
  w.pattern = row.pattern;
  w.request_size = kReq;
  w.compute_delay = row.compute_delay;
  w.prefetch = true;
  w.prefetch_cfg.depth = cfg.depth;
  w.prefetch_cfg.adaptive_depth = cfg.adaptive;
  w.prefetch_cfg.max_depth = 8;
  if (cfg.adaptive) w.prefetch_cfg.predictor = prefetch::PredictorKind::kEnsemble;

  switch (row.pattern) {
    case workload::AccessPattern::kStrided:
      w.stride = 4;
      // reads/node = file / (req * n * stride)
      w.file_size = kReq * n * w.stride * reads;
      break;
    case workload::AccessPattern::kListIo: {
      w.listio_extents = 4;
      // reads/node = (share / frame) * extents; pick share an exact frame
      // multiple so nothing is truncated.
      const sim::ByteCount frames = reads / w.listio_extents;
      w.file_size = workload::listio_frame_bytes(w) * frames * n;
      break;
    }
    default:
      w.file_size = kReq * n * reads;
      break;
  }
  return w;
}

/// The full pattern x config sweep, row-major (configs inner).
std::vector<exp::SweepJob> adapta_jobs(bool quick) {
  std::vector<exp::SweepJob> jobs;
  for (const AdaptaRow& row : kAdaptaRows) {
    for (const AdaptaConfig& cfg : kAdaptaConfigs) {
      jobs.push_back({std::string(row.name) + " " + cfg.name, workload::MachineSpec{},
                      adapta_spec(row, cfg, quick)});
    }
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("AdaptaFetch: adaptive readahead depth x pattern-aware predictors",
         "the paper's fixed one-ahead Sec. 3 design as the baseline",
         "adaptive >= 1.15x fixed-1 on sequential 8x8 and >= 1.3x on the "
         "strided / list-I/O rows, with useful-prefetch ratio >= 0.8");

  Gate gate(!args.quick);
  const auto grid = run_grid(adapta_jobs(args.quick), args.jobs, gate);
  const auto& report = grid.serial;
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Pattern", "Config", "Read B/W (MB/s)", "vs fixed-1", "Hit ratio",
                   "Useful", "Wasted KB", "Ramps +/-/!", "Digest"});
  JsonArray rows;
  double speedups[kAdaptaRowCount] = {};
  double min_useful = 1.0;
  std::size_t idx = 0;
  for (std::size_t ri = 0; ri < kAdaptaRowCount; ++ri) {
    double fixed1_bw = 0;
    for (std::size_t ci = 0; ci < kAdaptaConfigCount; ++ci, ++idx) {
      const auto& o = report.outcomes[idx];
      const auto& r = o.result;
      const auto& pf = r.prefetch;
      if (ci == 0) fixed1_bw = r.observed_read_bw_mbs;
      const double speedup = fixed1_bw > 0 ? r.observed_read_bw_mbs / fixed1_bw : 0;
      if (kAdaptaConfigs[ci].adaptive) {
        speedups[ri] = speedup;
        min_useful = std::min(min_useful, pf.useful_ratio());
      }
      char ramps[48];
      std::snprintf(ramps, sizeof ramps, "%llu/%llu/%llu",
                    static_cast<unsigned long long>(pf.depth_ramp_ups),
                    static_cast<unsigned long long>(pf.depth_ramp_downs),
                    static_cast<unsigned long long>(pf.depth_collapses));
      table.add_row({kAdaptaRows[ri].name, kAdaptaConfigs[ci].name,
                     fmt_double(r.observed_read_bw_mbs, 2),
                     fmt_double(speedup, 2) + "x", fmt_percent(pf.hit_ratio()),
                     fmt_percent(pf.useful_ratio()),
                     std::to_string(pf.wasted_bytes / 1024), ramps,
                     fmt_digest(r.digest)});

      JsonObject jrow = outcome_json(o);
      jrow.field("pattern", kAdaptaRows[ri].name)
          .field("config", kAdaptaConfigs[ci].name)
          .field("adaptive", kAdaptaConfigs[ci].adaptive)
          .field("speedup_vs_fixed1", speedup)
          .field("hit_ratio", pf.hit_ratio())
          .field("useful_ratio", pf.useful_ratio())
          .field("issued", pf.issued)
          .field("wasted_bytes", static_cast<std::uint64_t>(pf.wasted_bytes))
          .field("depth_ramp_ups", pf.depth_ramp_ups)
          .field("depth_ramp_downs", pf.depth_ramp_downs)
          .field("depth_collapses", pf.depth_collapses);
      JsonArray hist;
      for (const auto b : pf.depth_hist) hist.add_raw(std::to_string(b));
      jrow.raw("depth_hist", hist.str());
      rows.add(jrow);
    }
    table.add_rule();
  }

  std::cout << "\n" << table.str();
  std::printf("\nadaptive vs fixed-1: sequential %.2fx, strided %.2fx, listio %.2fx\n\n",
              speedups[0], speedups[1], speedups[2]);
  gate.at_least("adaptive vs fixed-1, sequential", speedups[0], kMinSequentialSpeedup);
  gate.at_least("adaptive vs fixed-1, worst pattern", std::min(speedups[1], speedups[2]),
                kMinPatternSpeedup);
  gate.at_least("adaptive useful-prefetch ratio, worst row", min_useful, kMinUsefulRatio);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("ablation_adaptive", args.quick);
    grid.stamp(doc);
    gate.stamp(doc);
    doc.field("sequential_speedup", speedups[0])
        .field("strided_speedup", speedups[1])
        .field("listio_speedup", speedups[2])
        .field("min_useful_ratio", min_useful)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
