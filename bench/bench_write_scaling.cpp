// TokenWrite scaling: concurrent checkpoint writers over byte-range write
// tokens and client write-back caches.
//
// The paper's PFS serializes every write through the pointer server; the
// TokenWrite extension grants byte-range write tokens so non-conflicting
// writers buffer locally and stream their flushes in parallel across the
// striped I/O nodes. This bench sweeps 1/2/4/8 writers in both range
// regimes:
//   - own slots: each writer owns a disjoint record range (no conflicts) —
//     aggregate write bandwidth should scale with writers;
//   - conflicting: every writer targets the SAME records each round — the
//     token manager serializes them and scaling flattens.
//
// Gated on every grid, --quick included: aggregate observed write
// bandwidth of the 8-writer own-slots row must be >= 1.5x the 1-writer
// row, and every row must verify byte-exact.
#include <iostream>

#include "bench_common.hpp"
#include "workload/write_workload.hpp"

namespace {

using namespace ppfs;
using namespace ppfs::bench;
using workload::WriteWorkloadKind;
using workload::WriteWorkloadSpec;

constexpr double kMinWriteScaling = 1.5;

struct Row {
  const char* name;
  int writers;
  bool conflicting;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("TokenWrite: concurrent checkpoint writers with byte-range tokens",
         "write-path extension (not in the paper): byte-range token "
         "coherence over the Section 3 pointer/metadata server",
         "own-slot writers scale aggregate write bandwidth (>= 1.5x from 1 "
         "to 8 writers); conflicting writers serialize on token revocation "
         "and flatten");

  const Row rows[] = {
      {"1 writer own", 1, false},   {"2 writers own", 2, false},
      {"4 writers own", 4, false},  {"8 writers own", 8, false},
      {"2 writers conflict", 2, true},
      {"4 writers conflict", 4, true},
      {"8 writers conflict", 8, true},
  };

  TextTable table({"Config", "Write B/W (MB/s)", "Token RPCs", "Local grants",
                   "Revocations", "Flushes", "Verify"});
  JsonArray json_rows;
  double bw1 = 0, bw8 = 0;
  bool verify_ok = true;
  for (const Row& row : rows) {
    WriteWorkloadSpec spec;
    spec.kind = WriteWorkloadKind::kCheckpoint;
    spec.writers = row.writers;
    spec.conflicting = row.conflicting;
    spec.rounds = args.quick ? 4 : 8;
    spec.request_size = 256 * 1024;
    spec.machine.ncompute = 8;
    const auto r = run_write_workload(spec);
    verify_ok = verify_ok && r.verify_failures == 0;
    table.add_row({row.name, fmt_double(r.observed_write_bw_mbs, 2),
                   std::to_string(r.token_rpcs), std::to_string(r.token_local_grants),
                   std::to_string(r.token_revocations), std::to_string(r.wb_flush_ops),
                   r.verify_failures == 0 ? "ok" : "FAIL"});
    if (!row.conflicting && row.writers == 1) bw1 = r.observed_write_bw_mbs;
    if (!row.conflicting && row.writers == 8) bw8 = r.observed_write_bw_mbs;
    JsonObject jrow;
    jrow.field("label", row.name)
        .field("writers", row.writers)
        .field("conflicting", row.conflicting)
        .field("write_bw_mbs", r.observed_write_bw_mbs)
        .field("wall_bw_mbs", r.wall_bw_mbs)
        .field("bytes_written", r.bytes_written)
        .field("token_rpcs", r.token_rpcs)
        .field("token_local_grants", r.token_local_grants)
        .field("token_grants", r.token_grants)
        .field("token_revocations", r.token_revocations)
        .field("token_splits", r.token_splits)
        .field("wb_flush_ops", r.wb_flush_ops)
        .field("wb_flushed_bytes", r.wb_flushed_bytes)
        .field("wb_peak_dirty_bytes", r.wb_peak_dirty_bytes)
        .field("events", r.events_dispatched)
        .field("digest", fmt_digest(r.digest))
        .field("verify_failures", r.verify_failures);
    json_rows.add(jrow);
  }
  std::cout << "\n" << table.str() << "\n";

  const double scaling = bw1 > 0 ? bw8 / bw1 : 0.0;
  Gate gate(true);
  gate.check("every row verifies byte-exact", verify_ok);
  gate.at_least("write B/W, 8 vs 1 own-slot writers", scaling, kMinWriteScaling);

  if (!args.json_path.empty()) {
    JsonObject doc = bench_doc("write_scaling", args.quick);
    gate.stamp(doc);
    doc.field("gated_scaling_1_to_8", scaling).raw("rows", json_rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return gate.exit_code();
}
