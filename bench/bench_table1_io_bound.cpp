// Table 1: PFS read performance with and without prefetching for an
// I/O-bound workload (no computation between reads), M_RECORD mode,
// stripe unit 64KB, stripe group 8.
//
// The scenarios are independent simulations, so they run through the
// SweepRunner. Gated: with --jobs N > 1 the grid runs serially and on N
// workers, and every scenario's digest and event count must agree; the
// speedup at min(N, cores) workers is recorded, not gated.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ppfs;
  using namespace ppfs::bench;
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("Table 1: read performance with/without prefetching (I/O bound)",
         "Tab. 1 (stripe unit 64KB, stripe group 8, no compute delay)",
         "prefetching ~ no-prefetching for all sizes; small (64KB) requests "
         "slightly WORSE with prefetching (buffer copy + issue overhead)");

  Gate gate(!args.quick);
  const auto grid = run_grid(
      exp::paper_table_jobs(MachineSpec{}, WorkloadSpec{}, args.quick ? 2 : 8), args.jobs,
      gate);
  const auto& report = grid.serial;
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Request size (per node)", "File size", "Read B/W (MB/s) no prefetch",
                   "Read B/W (MB/s) prefetch", "delta", "hit ratio"});
  JsonArray rows;
  for (std::size_t i = 0; i + 1 < report.outcomes.size(); i += 2) {
    const auto& r0 = report.outcomes[i].result;
    const auto& r1 = report.outcomes[i + 1].result;
    const double delta = (r1.observed_read_bw_mbs - r0.observed_read_bw_mbs) /
                         r0.observed_read_bw_mbs;
    table.add_row({fmt_bytes(r0.spec.request_size), fmt_bytes(r0.spec.file_size),
                   fmt_double(r0.observed_read_bw_mbs, 2),
                   fmt_double(r1.observed_read_bw_mbs, 2), fmt_percent(delta),
                   fmt_percent(r1.prefetch.hit_ratio())});
    rows.add(outcome_json(report.outcomes[i]));
    rows.add(outcome_json(report.outcomes[i + 1]));
  }
  std::cout << "\n" << table.str() << std::endl;

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("table1_io_bound", args.quick);
    grid.stamp(doc);
    gate.stamp(doc);
    doc.raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
