// ppfs_run: run any single workload configuration on the simulated
// Paragon from the command line, printing the paper's metrics.
//
//   $ ppfs_run --mode M_RECORD --request 256K --file 16M --delay 0.05 --compare
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "exp/sweep.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "workload/options.hpp"
#include "workload/report.hpp"

using namespace ppfs;
using namespace ppfs::workload;

namespace {

void print_result(const char* label, const ExperimentResult& r) {
  std::printf("%-16s reads=%llu bytes=%s wall=%s\n", label,
              (unsigned long long)r.reads, fmt_bytes(r.total_bytes).c_str(),
              fmt_time(r.wall_elapsed).c_str());
  std::printf("  observed read B/W %8.2f MB/s   (max node read time %s)\n",
              r.observed_read_bw_mbs, fmt_time(r.max_node_read_time).c_str());
  std::printf("  wall-clock  B/W   %8.2f MB/s   mean read call %s\n", r.wall_bw_mbs,
              fmt_time(r.mean_read_call_time).c_str());
  const auto& lat = r.read_latencies;  // streaming sketch: percentile() is const
  std::printf("  read latency      p50 %s  p95 %s  max %s\n", fmt_time(lat.median()).c_str(),
              fmt_time(lat.percentile(95)).c_str(), fmt_time(lat.max()).c_str());
  std::printf("  footprint         peak-pending=%llu queue=%s arena=%s (%.2f B/event)\n",
              (unsigned long long)r.peak_pending_events,
              fmt_bytes(r.event_queue_bytes).c_str(),
              fmt_bytes(r.frame_arena_bytes).c_str(), r.bytes_per_event);
  if (r.spec.verify) {
    std::printf("  verification: %s\n",
                r.verify_failures == 0 ? "all bytes correct" : "FAILURES DETECTED");
  }
  if (r.prefetch.issued > 0 || r.spec.prefetch) {
    const auto& p = r.prefetch;
    std::printf("  prefetch: issued=%llu ready=%llu in-flight=%llu miss=%llu stale=%llu "
                "wasted=%llu hit=%.1f%% wait=%s\n",
                (unsigned long long)p.issued, (unsigned long long)p.hits_ready,
                (unsigned long long)p.hits_in_flight, (unsigned long long)p.misses,
                (unsigned long long)p.stale_discarded, (unsigned long long)p.wasted,
                p.hit_ratio() * 100.0, fmt_time(p.wait_time).c_str());
    if (p.shed > 0 || p.fault_pauses > 0) {
      std::printf("  prefetch faults: shed=%llu pauses=%llu skips=%llu\n",
                  (unsigned long long)p.shed, (unsigned long long)p.fault_pauses,
                  (unsigned long long)p.fault_skips);
    }
    if (r.spec.prefetch_cfg.adaptive_depth) {
      std::printf("  adaptive depth: ramp-ups=%llu ramp-downs=%llu collapses=%llu "
                  "useful=%.1f%% wasted-bytes=%llu\n",
                  (unsigned long long)p.depth_ramp_ups,
                  (unsigned long long)p.depth_ramp_downs,
                  (unsigned long long)p.depth_collapses, p.useful_ratio() * 100.0,
                  (unsigned long long)p.wasted_bytes);
      std::printf("  depth histogram:");
      for (std::size_t b = 0; b < prefetch::PrefetchStats::kDepthHistBuckets; ++b) {
        if (p.depth_hist[b] == 0) continue;
        std::printf(" %zu%s=%llu", b,
                    b + 1 == prefetch::PrefetchStats::kDepthHistBuckets ? "+" : "",
                    (unsigned long long)p.depth_hist[b]);
      }
      std::printf("\n");
    }
  }
  std::printf("  rpcs: data=%llu metadata=%llu pointer=%llu",
              (unsigned long long)r.data_rpcs, (unsigned long long)r.metadata_rpcs,
              (unsigned long long)r.pointer_rpcs);
  if (r.coalesced_rpcs > 0) {
    std::printf(" coalesced=%llu (%.1f extents/rpc, %llu map refreshes)",
                (unsigned long long)r.coalesced_rpcs,
                (double)r.coalesced_extents / (double)r.coalesced_rpcs,
                (unsigned long long)r.stripe_map_refreshes);
  }
  std::printf("\n");
  if (r.mesh_segmented_messages > 0) {
    std::printf("  mesh: %llu segmented messages, %llu segments\n",
                (unsigned long long)r.mesh_segmented_messages,
                (unsigned long long)r.mesh_segments);
  }
  if (r.server_batch_sweeps > 0) {
    std::printf("  server batches: %llu sweeps, %llu extents (%.1f extents/sweep)\n",
                (unsigned long long)r.server_batch_sweeps,
                (unsigned long long)r.server_batched_extents,
                (double)r.server_batched_extents / (double)r.server_batch_sweeps);
  }
  std::printf("  hot links: %s\n", fmt_link_busy(r.top_links).c_str());
  if (!r.spec.faults.empty() || r.faults.any()) {
    const auto& f = r.faults;
    std::printf("  faults: injected=%llu transients=%llu reconstructed=%llu "
                "degraded-writes=%llu\n",
                (unsigned long long)f.injected_events,
                (unsigned long long)f.disk_transients,
                (unsigned long long)f.reconstructed_reads,
                (unsigned long long)f.degraded_writes);
    std::printf("  recovery: retries=%llu down-waits=%llu timeouts=%llu terminal=%llu "
                "app-errors=%llu backoff=%s recovery-wait=%s\n",
                (unsigned long long)f.rpc_retries, (unsigned long long)f.rpc_down_waits,
                (unsigned long long)f.rpc_timeouts, (unsigned long long)f.terminal_errors,
                (unsigned long long)f.app_errors, fmt_time(f.backoff_time).c_str(),
                fmt_time(f.recovery_wait_time).c_str());
    if (f.stale_epoch_discards > 0) {
      std::printf("  prefetch epochs: stale-epoch discards=%llu\n",
                  (unsigned long long)f.stale_epoch_discards);
    }
  }
  if (r.cache_lookups > 0 || r.cache_inserts > 0 || r.cache_recoveries > 0) {
    std::printf("  cache tier: lookups=%llu hits=%llu (%.1f%%) inserts=%llu "
                "evictions=%llu journal-flushes=%llu\n",
                (unsigned long long)r.cache_lookups, (unsigned long long)r.cache_hits,
                r.cache_lookups
                    ? 100.0 * (double)r.cache_hits / (double)r.cache_lookups
                    : 0.0,
                (unsigned long long)r.cache_inserts,
                (unsigned long long)r.cache_evictions,
                (unsigned long long)r.cache_journal_flushes);
    if (r.cache_recoveries > 0) {
      std::printf("  tier recovery: replays=%llu recovery-time=%.3fms blocks=%llu "
                  "torn-dropped=%llu stale-dropped=%llu warm-hit=%.1f%%\n",
                  (unsigned long long)r.cache_recoveries,
                  r.cache_recovery_time * 1e3,
                  (unsigned long long)r.cache_recovered_blocks,
                  (unsigned long long)r.cache_torn_dropped,
                  (unsigned long long)r.cache_stale_dropped,
                  r.cache_warm_hit_ratio * 100.0);
    }
  }
}

void print_write_result(const char* label, const ExperimentResult& r) {
  std::printf("%-16s writes=%llu written=%s reads=%llu read=%s wall=%s\n", label,
              (unsigned long long)r.writes, fmt_bytes(r.bytes_written).c_str(),
              (unsigned long long)r.reads, fmt_bytes(r.total_bytes).c_str(),
              fmt_time(r.wall_elapsed).c_str());
  if (r.max_node_write_time > 0) {
    std::printf("  observed write B/W %7.2f MB/s  (max node write time %s)\n",
                r.observed_write_bw_mbs, fmt_time(r.max_node_write_time).c_str());
  }
  std::printf("  wall-clock  B/W   %8.2f MB/s\n", r.wall_bw_mbs);
  std::printf("  tokens: rpcs=%llu local-grants=%llu grants=%llu revocations=%llu "
              "splits=%llu invalidations=%llu\n",
              (unsigned long long)r.token_rpcs, (unsigned long long)r.token_local_grants,
              (unsigned long long)r.token_grants, (unsigned long long)r.token_revocations,
              (unsigned long long)r.token_splits,
              (unsigned long long)r.token_invalidations);
  std::printf("  write-back: buffered=%llu read-hits=%llu flushes=%llu "
              "(revoke=%llu fsync=%llu evict=%llu) flushed=%s peak-dirty=%s\n",
              (unsigned long long)r.wb_writes, (unsigned long long)r.wb_read_hits,
              (unsigned long long)r.wb_flush_ops,
              (unsigned long long)r.wb_revocation_flushes,
              (unsigned long long)r.wb_fsync_flushes,
              (unsigned long long)r.wb_capacity_evictions,
              fmt_bytes(r.wb_flushed_bytes).c_str(),
              fmt_bytes(r.wb_peak_dirty_bytes).c_str());
  std::printf("  rpcs: data=%llu metadata=%llu pointer=%llu",
              (unsigned long long)r.data_rpcs, (unsigned long long)r.metadata_rpcs,
              (unsigned long long)r.pointer_rpcs);
  if (r.coalesced_rpcs > 0) {
    std::printf(" coalesced=%llu", (unsigned long long)r.coalesced_rpcs);
  }
  std::printf("\n");
  std::printf("  footprint         peak-pending=%llu queue=%s arena=%s (%.2f B/event)\n",
              (unsigned long long)r.peak_pending_events,
              fmt_bytes(r.event_queue_bytes).c_str(),
              fmt_bytes(r.frame_arena_bytes).c_str(), r.bytes_per_event);
  if (r.spec.verify) {
    std::printf("  verification: %s\n",
                r.verify_failures == 0 ? "all bytes correct" : "FAILURES DETECTED");
  }
  if (!r.spec.faults.empty() || r.faults.any()) {
    const auto& f = r.faults;
    std::printf("  faults: injected=%llu retries=%llu down-waits=%llu timeouts=%llu "
                "terminal=%llu app-errors=%llu\n",
                (unsigned long long)f.injected_events, (unsigned long long)f.rpc_retries,
                (unsigned long long)f.rpc_down_waits, (unsigned long long)f.rpc_timeouts,
                (unsigned long long)f.terminal_errors, (unsigned long long)f.app_errors);
  }
}

/// The exit status of every mode that runs workloads, folded over all of
/// its runs: 1 when any byte failed verification, else 3 when any run gave
/// up on a fault (a retry budget exhausted or a FaultError surfacing to
/// application code), else 0. Scripts and CI gate on both.
struct ExitStatus {
  std::uint64_t verify_failures = 0;
  std::uint64_t terminal_errors = 0;
  std::uint64_t app_errors = 0;

  ExitStatus& add(const ExperimentResult& r) {
    verify_failures += r.verify_failures;
    terminal_errors += r.faults.terminal_errors;
    app_errors += r.faults.app_errors;
    return *this;
  }

  int code() const {
    if (verify_failures > 0) return 1;
    if (terminal_errors > 0 || app_errors > 0) {
      std::fprintf(stderr, "fault give-up: terminal=%llu app-errors=%llu (exit 3)\n",
                   (unsigned long long)terminal_errors, (unsigned long long)app_errors);
      return 3;
    }
    return 0;
  }
};

void print_write_header(const WriteWorkloadSpec& spec) {
  if (spec.kind == WriteWorkloadKind::kMixed) {
    std::printf("write-workload: mixed, %d tenants, request %s, write fraction %.2f\n\n",
                spec.tenants, fmt_bytes(spec.request_size).c_str(), spec.write_fraction);
    return;
  }
  std::printf("write-workload: %s, %d writers, request %s, rounds %llu%s%s\n\n",
              to_string(spec.kind), spec.writers, fmt_bytes(spec.request_size).c_str(),
              (unsigned long long)spec.rounds,
              spec.conflicting ? ", conflicting" : ", own slots",
              spec.fsync_each_round ? "" : ", no round fsync");
  if (!spec.faults.empty()) {
    std::printf("faults:   %s\n\n", spec.faults.summary().c_str());
  }
}

/// True when the run ended with faults the stack could NOT absorb: a retry
/// budget exhausted or a FaultError surfacing to application code.
bool fault_gave_up(const ExperimentResult& r) {
  return r.faults.terminal_errors > 0 || r.faults.app_errors > 0;
}

/// The read workloads a run makes: the prefetch off/on pair for --compare,
/// else the one given.
std::vector<WorkloadSpec> read_runs(const CliOptions& opt) {
  if (!opt.compare) return {opt.workload};
  auto off = opt.workload;
  off.prefetch = false;
  auto on = opt.workload;
  on.prefetch = true;
  return {off, on};
}

const char* read_label(const WorkloadSpec& w) {
  return w.prefetch ? "prefetch:" : "no prefetch:";
}

/// SimCheck determinism self-check: run the identical configuration twice
/// on fresh machines and demand bit-identical kernel digests (plus matching
/// headline metrics — a digest collision hiding a divergence would still be
/// caught by these). Returns true when the runs agree.
template <class Run>
bool selfcheck_one(const char* label, const Run& run) {
  const ExperimentResult r1 = run();
  const ExperimentResult r2 = run();
  const bool ok = r1.digest == r2.digest && r1.events_dispatched == r2.events_dispatched &&
                  r1.reads == r2.reads && r1.total_bytes == r2.total_bytes &&
                  r1.bytes_written == r2.bytes_written && r1.wall_elapsed == r2.wall_elapsed;
  std::printf("%-16s digest %016llx / %016llx  events %llu / %llu : %s\n", label,
              (unsigned long long)r1.digest, (unsigned long long)r2.digest,
              (unsigned long long)r1.events_dispatched,
              (unsigned long long)r2.events_dispatched, ok ? "IDENTICAL" : "DIVERGED");
  return ok;
}

/// --selfcheck: every run the options make (one write workload, one read
/// workload, or the --compare pair), each twice.
int run_selfcheck(const Experiment& exp, const CliOptions& opt) {
  bool ok = true;
  if (opt.write_workload) {
    ok = selfcheck_one("write:", [&] { return run_write_workload(*opt.write_workload); });
  } else {
    for (const WorkloadSpec& w : read_runs(opt)) {
      ok &= selfcheck_one(read_label(w), [&] { return exp.run(w); });
    }
  }
  std::printf("selfcheck: %s\n", ok ? "PASS" : "FAIL (nondeterminism detected)");
  return ok ? 0 : 1;
}

/// --sweep: run the paper-table grid through the parallel SweepRunner.
/// The printed digests are the determinism contract — identical for any
/// --jobs value (each scenario is one single-threaded simulation).
int run_sweep_grid(const CliOptions& opt) {
  const auto jobs = exp::paper_table_jobs(opt.machine, opt.workload);
  const auto report = exp::run_sweep(jobs, opt.jobs);

  TextTable table({"Scenario", "Read B/W (MB/s)", "Wall B/W (MB/s)", "Events", "Digest",
                   "Run (s)"});
  char digest[32];
  for (const auto& o : report.outcomes) {
    if (!o.ok()) {
      table.add_row({o.label, "error: " + o.error, "", "", "", ""});
      continue;
    }
    std::snprintf(digest, sizeof digest, "%016llx", (unsigned long long)o.result.digest);
    table.add_row({o.label, fmt_double(o.result.observed_read_bw_mbs, 2),
                   fmt_double(o.result.wall_bw_mbs, 2),
                   std::to_string(o.result.events_dispatched), digest,
                   fmt_double(o.seconds, 3)});
  }
  std::cout << table.str();
  std::printf("\nsweep: %zu scenarios, %d worker%s, %.3fs wall\n", report.outcomes.size(),
              report.jobs, report.jobs == 1 ? "" : "s", report.seconds);
  if (!report.all_ok()) {
    std::fprintf(stderr, "sweep: one or more scenarios failed\n");
    return 1;
  }
  ExitStatus status;
  for (const auto& o : report.outcomes) status.add(o.result);
  return status.code();
}

/// TraceScope output. Unbounded sinks export the whole run as Chrome
/// trace_event JSON; ring sinks (--trace-last) only dump — as the compact
/// binary format, since a wrapped ring has begin-less spans that Chrome's
/// viewer would mis-render — when the run hit a fault give-up and there is
/// a post-mortem worth keeping.
void dump_trace(const trace::TraceSink& sink, const CliOptions& opt, bool gave_up) {
  if (opt.trace_last == 0) {
    if (!trace::write_chrome_json_file(sink, opt.trace_path)) {
      std::fprintf(stderr, "trace: cannot write %s\n", opt.trace_path.c_str());
      return;
    }
    std::printf("\ntrace: %zu records -> %s (open in Perfetto or chrome://tracing)\n",
                sink.size(), opt.trace_path.c_str());
  } else if (gave_up) {
    const std::string path = opt.trace_path + ".last.bin";
    if (!trace::write_binary_file(sink, path)) {
      std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
      return;
    }
    std::printf("\ntrace: fault give-up post-mortem, last %zu records -> %s"
                " (%llu older records dropped)\n",
                sink.size(), path.c_str(), (unsigned long long)sink.dropped());
  }
}

/// One plain run, read or write workload, traced when --trace is given.
int run_single(const Experiment& exp, const CliOptions& opt) {
  trace::TraceSink sink(opt.trace_last);
  trace::TraceSink* sinkp = opt.trace_path.empty() ? nullptr : &sink;
  ExperimentResult r;
  try {
    r = opt.write_workload ? run_write_workload(*opt.write_workload, sinkp)
                           : exp.run(opt.workload, sinkp);
  } catch (...) {
    // The sink outlives the simulation: even when the run dies on an
    // unrecovered fault, the trace collected so far is written out.
    if (sinkp) dump_trace(sink, opt, /*gave_up=*/true);
    throw;
  }
  if (opt.write_workload) {
    print_write_result("write:", r);
  } else {
    print_result(read_label(opt.workload), r);
  }
  if (sinkp) {
    dump_trace(sink, opt, fault_gave_up(r));
    std::printf("\n%s", trace::format_metrics(
                            trace::compute_metrics(trace::snapshot(sink)))
                            .c_str());
  }
  return ExitStatus{}.add(r).code();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions opt;
  try {
    opt = parse_cli(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (opt.show_help) {
    std::cout << cli_usage();
    return 0;
  }
  if (!opt.trace_path.empty() && (opt.sweep || opt.selfcheck || opt.compare)) {
    std::fprintf(stderr,
                 "error: --trace: only valid in plain single-run mode "
                 "(not with --sweep/--selfcheck/--compare)\n");
    return 2;
  }
  if (opt.trace_last > 0 && opt.trace_path.empty()) {
    std::fprintf(stderr, "error: --trace-last: requires --trace <path>\n");
    return 2;
  }

  try {
    Experiment exp(opt.machine);
    std::printf("machine: %d compute + %d I/O nodes, %s, %s scheduling\n",
                opt.machine.ncompute, opt.machine.nio,
                opt.machine.raid.bus_bandwidth > 8e6 ? "SCSI-16" : "SCSI-8",
                opt.machine.raid.disk.scheduler == hw::DiskSched::kElevator ? "elevator"
                                                                            : "FIFO");
    if (opt.write_workload) {
      print_write_header(*opt.write_workload);
      if (opt.selfcheck) return run_selfcheck(exp, opt);
      return run_single(exp, opt);
    }
    std::printf("workload: %s, request %s, file %s, delay %.3fs%s%s\n\n",
                std::string(pfs::to_string(opt.workload.mode)).c_str(),
                fmt_bytes(opt.workload.request_size).c_str(),
                fmt_bytes(opt.workload.file_size).c_str(), opt.workload.compute_delay,
                opt.workload.separate_files ? ", separate files" : "",
                opt.workload.use_fastpath ? "" : ", buffered");
    if (opt.machine.mesh_mtu > 0 || opt.machine.pfs.coalesce_rpcs ||
        opt.machine.pfs.server_batch) {
      std::printf("datapath: mesh mtu %s, coalescing %s, server batching %s\n\n",
                  opt.machine.mesh_mtu > 0 ? fmt_bytes(opt.machine.mesh_mtu).c_str() : "off",
                  opt.machine.pfs.coalesce_rpcs ? "on" : "off",
                  opt.machine.pfs.server_batch ? "on" : "off");
    }
    if (!opt.workload.faults.empty()) {
      std::printf("faults:   %s\n\n", opt.workload.faults.summary().c_str());
    }

    if (opt.sweep) {
      return run_sweep_grid(opt);
    }
    if (opt.selfcheck) {
      return run_selfcheck(exp, opt);
    }
    if (opt.compare) {
      const auto runs = read_runs(opt);
      const auto r_off = exp.run(runs[0]);
      const auto r_on = exp.run(runs[1]);
      print_result("no prefetch:", r_off);
      std::printf("\n");
      print_result("prefetch:", r_on);
      // fmt_double turns the 0/0 of a zero-bandwidth baseline into "n/a"
      // instead of "nanx".
      std::printf("\nspeedup (observed read B/W): %sx\n",
                  fmt_double(r_on.observed_read_bw_mbs / r_off.observed_read_bw_mbs, 2)
                      .c_str());
      return ExitStatus{}.add(r_off).add(r_on).code();
    }
    return run_single(exp, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
