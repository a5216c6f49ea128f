// Table 3: PFS read performance with prefetching for different stripe
// unit sizes (no compute delay). Scenarios fan out through the
// SweepRunner; per request size: three prefetch stripe-unit runs plus the
// default-stripe no-prefetch reference column.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ppfs;
  using namespace ppfs::bench;
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("Table 3: prefetching for various stripe units",
         "Tab. 3 (prefetch ON, stripe units 64KB / 256KB / 1MB, no delay)",
         "results consistent with the no-prefetching case; small requests "
         "lose a little to prefetch overhead; larger stripe units "
         "concentrate small requests on fewer I/O nodes");

  const MachineSpec machine;
  const int n = machine.ncompute;
  const int rounds = args.quick ? 2 : 8;
  const std::vector<sim::ByteCount> stripe_units = {64 * 1024, 256 * 1024, 1024 * 1024};
  const std::size_t per_req = stripe_units.size() + 1;

  std::vector<exp::SweepJob> jobs;
  for (auto req : paper_request_sizes()) {
    WorkloadSpec base;
    base.mode = pfs::IoMode::kRecord;
    base.request_size = req;
    base.file_size = file_size_for(req, n, rounds);

    for (auto su : stripe_units) {
      auto w = base;
      w.prefetch = true;
      pfs::StripeAttrs attrs;
      attrs.stripe_unit = su;
      attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
      w.attrs = attrs;
      jobs.push_back({fmt_bytes(req) + " su=" + fmt_bytes(su), machine, w});
    }
    // Reference column: default stripe unit without prefetching.
    jobs.push_back({fmt_bytes(req) + " no-prefetch", machine, base});
  }

  const auto report = exp::run_sweep(jobs, args.jobs);
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Request size (per node)", "File size", "B/W su=64KB", "B/W su=256KB",
                   "B/W su=1MB", "no-prefetch su=64KB"});
  JsonArray rows;
  const auto sizes = paper_request_sizes();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto* group = &report.outcomes[i * per_req];
    std::vector<std::string> row = {fmt_bytes(sizes[i]),
                                    fmt_bytes(group[0].result.spec.file_size)};
    for (std::size_t j = 0; j < per_req; ++j) {
      row.push_back(fmt_double(group[j].result.observed_read_bw_mbs, 2));
      rows.add(outcome_json(group[j]));
    }
    table.add_row(row);
  }
  std::cout << "\nAggregate read bandwidth (MB/s), prefetching enabled:\n\n"
            << table.str() << std::endl;
  std::printf("sweep: %zu scenarios, %d worker%s, %.3fs wall\n", report.outcomes.size(),
              report.jobs, report.jobs == 1 ? "" : "s", report.seconds);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("table3_stripe_units", args.quick);
    doc.field("jobs", report.jobs)
        .field("wall_seconds", report.seconds)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return 0;
}
