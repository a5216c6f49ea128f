// Figure 2: read performance of the PFS I/O modes vs request size
// (8 compute nodes, 8 I/O nodes, all reading one shared 64KB-block PFS
// file; "Separate Files" = each node reads a private file).
//
// 48 independent (mode, request-size) scenarios — the figure's whole grid
// goes through the SweepRunner in one batch; --jobs N overlaps them.
#include <iostream>

#include "bench_common.hpp"
#include "pfs/io_mode.hpp"

int main(int argc, char** argv) {
  using namespace ppfs;
  using namespace ppfs::bench;
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("Figure 2: read performance of the PFS I/O modes",
         "Fig. 2 (File System Read Performance, 8 compute / 8 I/O nodes)",
         "M_ASYNC ~ Separate Files ~ M_RECORD on top; M_SYNC below; "
         "M_LOG and M_UNIX lowest (shared-pointer serialization); "
         "all rise with request size then saturate");

  const MachineSpec machine;

  std::vector<sim::ByteCount> request_sizes = {
      16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024,
      512 * 1024, 1024 * 1024, 2048 * 1024};
  if (args.quick) request_sizes = {64 * 1024, 256 * 1024, 1024 * 1024};

  struct Series {
    std::string label;
    pfs::IoMode mode;
    bool separate;
  };
  const std::vector<Series> series = {
      {"M_UNIX", pfs::IoMode::kUnix, false},   {"M_LOG", pfs::IoMode::kLog, false},
      {"M_SYNC", pfs::IoMode::kSync, false},   {"M_RECORD", pfs::IoMode::kRecord, false},
      {"M_ASYNC", pfs::IoMode::kAsync, false}, {"Separate Files", pfs::IoMode::kAsync, true},
  };

  std::vector<exp::SweepJob> jobs;
  for (auto req : request_sizes) {
    for (const auto& s : series) {
      WorkloadSpec w;
      w.mode = s.mode;
      w.separate_files = s.separate;
      w.request_size = req;
      w.file_size = file_size_for(req, machine.ncompute, 4);
      jobs.push_back({s.label + " " + fmt_bytes(req), machine, w});
    }
  }

  const auto report = exp::run_sweep(jobs, args.jobs);
  if (!report.all_ok()) return finish_sweep(report);

  std::vector<std::string> headers = {"Request size"};
  for (const auto& s : series) headers.push_back(s.label);
  TextTable table(headers);
  JsonArray rows;
  for (std::size_t i = 0; i < request_sizes.size(); ++i) {
    std::vector<std::string> row = {fmt_bytes(request_sizes[i])};
    for (std::size_t j = 0; j < series.size(); ++j) {
      const auto& o = report.outcomes[i * series.size() + j];
      row.push_back(fmt_double(o.result.observed_read_bw_mbs, 2));
      rows.add(outcome_json(o));
    }
    table.add_row(row);
  }
  std::cout << "\nAggregate read bandwidth (MB/s) vs per-node request size:\n\n"
            << table.str() << std::endl;
  std::printf("sweep: %zu scenarios, %d worker%s, %.3fs wall\n", report.outcomes.size(),
              report.jobs, report.jobs == 1 ? "" : "s", report.seconds);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("fig2_io_modes", args.quick);
    doc.field("jobs", report.jobs)
        .field("wall_seconds", report.seconds)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return 0;
}
