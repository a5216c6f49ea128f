// Crash-recovery ablation for the persistent second-tier cache (DuraCache):
// cold vs warm restart on the sequential 8x8 workload.
//
// Four core rows — tier off/on x healthy/crash — plus eviction-pressure
// and eviction-policy variants. The crash lands mid-read-phase; the paper's
// observed-bandwidth metric then includes the outage and the post-restart
// tail, so the tier's value shows up as (a) a recovery-time line that is a
// journal replay instead of a full cold cache, and (b) a warm-restart hit
// ratio on the reads served after the node comes back.
//
// Gated on every grid, --quick included: the "tier crash" row must report
// warm_hit_ratio >= 0.5 and a nonzero recovery time with recovered blocks
// — a warm restart that actually restored service from the journal, not a
// cold cache with extra steps. With --jobs N > 1 every scenario must also
// reproduce its serial digest.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace ppfs;
using namespace ppfs::bench;

constexpr double kMinWarmHitRatio = 0.5;

struct TierConfig {
  const char* name;
  bool tier = false;
  bool crash = false;
  std::uint64_t capacity = 1024;  // blocks
  cache::EvictionKind eviction = cache::EvictionKind::kLru;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("DuraCache recovery: cold vs warm restart after an I/O node crash",
         "robustness extension (not in the paper): crash-safe second-tier "
         "cache with journaled block bitmaps",
         "warm restart recovers the journal in one replay and serves the "
         "post-restart reads from the tier (warm hit ratio >= 0.5 on the "
         "sequential 8x8 run); eviction pressure lowers the ratio");

  const TierConfig configs[] = {
      {"no-tier healthy", false, false},
      {"tier healthy", true, false},
      {"no-tier crash", false, true},
      {"tier crash", true, true},  // the gated row
      {"tier crash cap=16", true, true, 16},
      {"tier crash fifo", true, true, 1024, cache::EvictionKind::kFifo},
  };

  // Sequential 8x8: M_RECORD, 64K records, every I/O node in the group.
  // 16M / 64K = 32 blocks per stripe file, so the populate phase crosses
  // the journal flush interval (8) four times per node — the journal is
  // complete when the crash hits. The compute delay stretches the read
  // phase so the crash (t=0.02, outage 0.05) lands mid-run and a real
  // post-restart tail remains to measure warmth on.
  WorkloadSpec base;
  base.mode = pfs::IoMode::kRecord;
  base.request_size = 64 * 1024;
  base.file_size = args.quick ? 8 * 1024 * 1024 : 16 * 1024 * 1024;
  base.compute_delay = 0.002;
  base.verify = true;

  std::vector<exp::SweepJob> jobs;
  for (const TierConfig& c : configs) {
    MachineSpec m;
    m.pfs.ufs.cache_tier.enabled = c.tier;
    m.pfs.ufs.cache_tier.capacity_blocks = c.capacity;
    m.pfs.ufs.cache_tier.eviction = c.eviction;
    WorkloadSpec w = base;
    if (c.crash) {
      w.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
    }
    jobs.push_back({c.name, m, w});
  }

  Gate gate(true);
  const auto grid = run_grid(jobs, args.jobs, gate);
  const auto& report = grid.serial;
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Config", "Read B/W (MB/s)", "Recovery time", "Replays", "Blocks",
                   "Warm hits", "Warm ratio", "Evictions", "Verify"});
  JsonArray rows;
  double gated_warm_ratio = -1;
  sim::SimTime gated_recovery_time = 0;
  std::uint64_t gated_recovered_blocks = 0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    const auto& r = o.result;
    const TierConfig& c = configs[i];
    table.add_row({c.name, fmt_double(r.observed_read_bw_mbs, 2),
                   fmt_double(r.cache_recovery_time * 1e3, 3) + "ms",
                   std::to_string(r.cache_recoveries),
                   std::to_string(r.cache_recovered_blocks),
                   std::to_string(r.cache_warm_hits) + "/" +
                       std::to_string(r.cache_warm_lookups),
                   fmt_double(r.cache_warm_hit_ratio, 3),
                   std::to_string(r.cache_evictions),
                   r.verify_failures == 0 ? "ok" : "FAIL"});
    if (std::string(c.name) == "tier crash") {
      gated_warm_ratio = r.cache_warm_hit_ratio;
      gated_recovery_time = r.cache_recovery_time;
      gated_recovered_blocks = r.cache_recovered_blocks;
    }
    JsonObject row = outcome_json(o);
    row.field("tier", c.tier)
        .field("crash", c.crash)
        .field("capacity_blocks", c.capacity)
        .field("eviction", c.eviction == cache::EvictionKind::kLru ? "lru" : "fifo")
        .field("cache_lookups", r.cache_lookups)
        .field("cache_hits", r.cache_hits)
        .field("cache_inserts", r.cache_inserts)
        .field("cache_evictions", r.cache_evictions)
        .field("journal_flushes", r.cache_journal_flushes)
        .field("recoveries", r.cache_recoveries)
        .field("recovered_blocks", r.cache_recovered_blocks)
        .field("recovery_time_s", static_cast<double>(r.cache_recovery_time))
        .field("warm_lookups", r.cache_warm_lookups)
        .field("warm_hits", r.cache_warm_hits)
        .field("warm_hit_ratio", r.cache_warm_hit_ratio)
        .field("verify_failures", r.verify_failures);
    rows.add(row);
  }
  std::cout << "\n" << table.str() << "\n";
  gate.check("tier crash: journal replayed (time, blocks > 0)",
             gated_recovery_time > 0 && gated_recovered_blocks > 0);
  gate.at_least("tier crash: warm-restart hit ratio", gated_warm_ratio, kMinWarmHitRatio);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("recovery", args.quick);
    grid.stamp(doc);
    gate.stamp(doc);
    doc.field("gated_warm_hit_ratio", gated_warm_ratio)
        .field("gated_recovery_time_s", static_cast<double>(gated_recovery_time))
        .field("gated_recovered_blocks", gated_recovered_blocks)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
