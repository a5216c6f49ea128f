// Table 4: PFS read performance with prefetching for different stripe
// groups — striping across all 8 I/O nodes vs striping 8 ways across a
// single I/O node. No compute delay. Scenarios fan out through the
// SweepRunner (three per request size: sgroup=1, sgroup=8, no-prefetch).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ppfs;
  using namespace ppfs::bench;
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("Table 4: prefetching for different stripe groups",
         "Tab. 4 (sgroup=1 vs sgroup=8, prefetch ON, 8 compute nodes)",
         "8 I/O nodes beat 1 by a large factor (R8/R1 speedup column); "
         "prefetch overhead shows at 64KB requests");

  const MachineSpec machine;
  const int n = machine.ncompute;
  // Keep per-config runtime sane on a single I/O node: 4 rounds.
  const int rounds = args.quick ? 2 : 4;

  std::vector<exp::SweepJob> jobs;
  for (auto req : paper_request_sizes()) {
    WorkloadSpec base;
    base.mode = pfs::IoMode::kRecord;
    base.request_size = req;
    base.file_size = file_size_for(req, n, rounds);
    base.prefetch = true;

    // sgroup = 1: 8-way striping across I/O node 0 only.
    auto narrow = base;
    pfs::StripeAttrs a1;
    a1.stripe_unit = 64 * 1024;
    a1.stripe_group.assign(8, 0);
    narrow.attrs = a1;

    // sgroup = 8: across all I/O nodes.
    auto wide = base;
    pfs::StripeAttrs a8;
    a8.stripe_unit = 64 * 1024;
    a8.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
    wide.attrs = a8;

    auto noprefetch = wide;
    noprefetch.prefetch = false;

    jobs.push_back({fmt_bytes(req) + " sgroup=1", machine, narrow});
    jobs.push_back({fmt_bytes(req) + " sgroup=8", machine, wide});
    jobs.push_back({fmt_bytes(req) + " no-prefetch", machine, noprefetch});
  }

  const auto report = exp::run_sweep(jobs, args.jobs);
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Request size (per node)", "File size", "B/W sgroup=1 (MB/s)",
                   "B/W sgroup=8 (MB/s)", "Speedup R8/R1", "no-prefetch sgroup=8"});
  JsonArray rows;
  const auto sizes = paper_request_sizes();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& r1 = report.outcomes[i * 3].result;
    const auto& r8 = report.outcomes[i * 3 + 1].result;
    const auto& r8np = report.outcomes[i * 3 + 2].result;
    table.add_row({fmt_bytes(sizes[i]), fmt_bytes(r1.spec.file_size),
                   fmt_double(r1.observed_read_bw_mbs, 2),
                   fmt_double(r8.observed_read_bw_mbs, 2),
                   fmt_double(r8.observed_read_bw_mbs / r1.observed_read_bw_mbs, 2),
                   fmt_double(r8np.observed_read_bw_mbs, 2)});
    for (std::size_t j = 0; j < 3; ++j) rows.add(outcome_json(report.outcomes[i * 3 + j]));
  }
  std::cout << "\n" << table.str() << std::endl;
  std::printf("sweep: %zu scenarios, %d worker%s, %.3fs wall\n", report.outcomes.size(),
              report.jobs, report.jobs == 1 ? "" : "s", report.seconds);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("table4_stripe_groups", args.quick);
    doc.field("jobs", report.jobs)
        .field("wall_seconds", report.seconds)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return 0;
}
