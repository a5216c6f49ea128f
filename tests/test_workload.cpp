// Tests for the experiment driver and report utilities — these validate
// the harness the paper-table benches are built on.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "fault/plan.hpp"
#include "workload/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/open_arrival.hpp"
#include "workload/report.hpp"
#include "workload/trace.hpp"
#include "workload/write_workload.hpp"

namespace ppfs::workload {
namespace {

using pfs::IoMode;

MachineSpec small_machine() {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  return m;
}

WorkloadSpec small_spec(IoMode mode) {
  WorkloadSpec w;
  w.mode = mode;
  w.request_size = 64 * 1024;
  w.file_size = 2 * 1024 * 1024;
  w.verify = true;
  return w;
}

TEST(Experiment, RecordModeDeliversWholeFileVerified) {
  Experiment e(small_machine());
  const auto res = e.run(small_spec(IoMode::kRecord));
  EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(res.reads, 32u);  // 8 rounds x 4 nodes
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_GT(res.observed_read_bw_mbs, 0.0);
  EXPECT_GT(res.wall_elapsed, 0.0);
  EXPECT_EQ(res.node_read_time.size(), 4u);
}

TEST(Experiment, EveryModeRunsCleanAndVerifies) {
  Experiment e(small_machine());
  for (auto mode : pfs::all_io_modes()) {
    const auto res = e.run(small_spec(mode));
    EXPECT_EQ(res.verify_failures, 0u) << to_string(mode);
    EXPECT_GT(res.total_bytes, 0u) << to_string(mode);
    if (mode == IoMode::kGlobal) {
      // Every node reads the whole file.
      EXPECT_EQ(res.total_bytes, 4u * 2 * 1024 * 1024);
    } else {
      EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
    }
  }
}

TEST(Experiment, SeparateFilesWorkloadVerifies) {
  // Each node opens its private file in M_ASYNC whatever the workload's
  // mode, and its reads are verified against that mode.
  Experiment e(small_machine());
  for (IoMode mode : {IoMode::kUnix, IoMode::kAsync, IoMode::kRecord, IoMode::kLog,
                      IoMode::kSync, IoMode::kGlobal}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    auto w = small_spec(mode);
    w.separate_files = true;
    const auto res = e.run(w);
    EXPECT_EQ(res.verify_failures, 0u);
    EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
  }
}

TEST(Experiment, PrefetchingCountsHitsInSteadyState) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  w.prefetch = true;
  w.compute_delay = 0.1;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  // 8 reads per node: first misses, the rest should hit.
  EXPECT_EQ(res.prefetch.misses, 4u);
  EXPECT_EQ(res.prefetch.hits_ready + res.prefetch.hits_in_flight, 28u);
}

TEST(Experiment, PrefetchWithDelayRaisesObservedBandwidth) {
  // The paper's central claim, at harness level.
  Experiment e(small_machine());
  auto base = small_spec(IoMode::kRecord);
  base.file_size = 4 * 1024 * 1024;
  base.compute_delay = 0.05;
  auto pf = base;
  pf.prefetch = true;
  const auto without = e.run(base);
  const auto with = e.run(pf);
  EXPECT_GT(with.observed_read_bw_mbs, without.observed_read_bw_mbs * 1.5);
}

TEST(Experiment, NoDelayPrefetchDoesNotWin) {
  Experiment e(small_machine());
  auto base = small_spec(IoMode::kRecord);
  auto pf = base;
  pf.prefetch = true;
  const auto without = e.run(base);
  const auto with = e.run(pf);
  EXPECT_LE(with.observed_read_bw_mbs, without.observed_read_bw_mbs * 1.05);
}

TEST(Experiment, DeterministicAcrossRuns) {
  Experiment e(small_machine());
  const auto a = e.run(small_spec(IoMode::kRecord));
  const auto b = e.run(small_spec(IoMode::kRecord));
  EXPECT_DOUBLE_EQ(a.wall_elapsed, b.wall_elapsed);
  EXPECT_DOUBLE_EQ(a.observed_read_bw_mbs, b.observed_read_bw_mbs);
}

TEST(Experiment, CustomStripeAttrsRespected) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = 256 * 1024;
  attrs.stripe_group = {0};  // everything on one I/O node
  w.attrs = attrs;
  const auto narrow = e.run(w);
  const auto wide = e.run(small_spec(IoMode::kRecord));
  EXPECT_EQ(narrow.verify_failures, 0u);
  // One I/O node must be slower than four.
  EXPECT_LT(narrow.observed_read_bw_mbs, wide.observed_read_bw_mbs);
}

TEST(Experiment, ReadAccessTimeGrowsWithRequestSize) {
  Experiment e(small_machine());
  const auto t64 = e.read_access_time(64 * 1024);
  const auto t256 = e.read_access_time(256 * 1024);
  const auto t1m = e.read_access_time(1024 * 1024);
  EXPECT_GT(t64, 0.0);
  EXPECT_LT(t64, t256);
  EXPECT_LT(t256, t1m);
}

TEST(Experiment, PaperShapeStagesNoPayloadBytes) {
  // The paper's experiment: 8x8, M_RECORD, 128 KB per node over 64 KB
  // units on all eight I/O nodes, one-block-ahead prefetch. Every extent,
  // the populate's two-piece ones included, lands straight in its
  // destination buffer: one data RPC per extent, and the reads verify.
  Experiment e;
  WorkloadSpec w;
  w.mode = IoMode::kRecord;
  w.request_size = 128 * 1024;
  w.file_size = 8 * 1024 * 1024;
  w.compute_delay = 0.025;
  w.prefetch = true;
  w.verify = true;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_GT(res.prefetch.hits_ready + res.prefetch.hits_in_flight, 0u);
  // 64 populate chunks and 64 demand or prefetch reads, two extents each.
  EXPECT_EQ(res.data_rpcs, 192u);
}

TEST(Experiment, TooSmallFileThrows) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  w.file_size = w.request_size;  // less than one request per node
  EXPECT_THROW(e.run(w), std::invalid_argument);
}

// ---- one reader for both read drivers -------------------------------------

/// The trace that spells out `w` on `ranks` ranks: `reads` reads of
/// w.request_size per rank, each after a seek to seek(rank, k) when `seek`
/// is set, with w.compute_delay after every read but each rank's last.
AccessTrace spell_out(const WorkloadSpec& w, int ranks, std::uint64_t reads,
                      const std::function<FileOffset(int, std::uint64_t)>& seek) {
  AccessTrace t;
  t.mode = w.mode;
  t.ranks = ranks;
  for (std::uint64_t k = 0; k < reads; ++k) {
    for (int r = 0; r < ranks; ++r) {
      if (seek) t.ops.push_back(TraceOp{r, TraceOp::Kind::kSeek, 0, seek(r, k), 0});
      const SimTime think = k + 1 < reads ? w.compute_delay : 0.0;
      t.ops.push_back(TraceOp{r, TraceOp::Kind::kRead, w.request_size, 0, think});
    }
  }
  return t;
}

/// Experiment::run of `w` and replay_trace of the trace that spells it out
/// must be one run. Replay sizes its file to the trace's last read, so `w`
/// must read its whole file.
void expect_one_run(const WorkloadSpec& w, const AccessTrace& t) {
  const ExperimentResult a = Experiment(small_machine()).run(w);
  const ExperimentResult b = replay_trace(small_machine(), t, /*prefetch_on=*/false, {},
                                          /*verify=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_node_read_time, b.max_node_read_time);
  EXPECT_EQ(a.read_latencies.sum(), b.read_latencies.sum());
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(b.verify_failures, 0u);
}

TEST(OneReader, RecordWorkloadIsItsTrace) {
  WorkloadSpec w = small_spec(IoMode::kRecord);
  w.compute_delay = 0.005;
  expect_one_run(w, spell_out(w, 4, 8, nullptr));
}

TEST(OneReader, InterleavedAsyncWorkloadIsItsTrace) {
  WorkloadSpec w = small_spec(IoMode::kAsync);
  w.compute_delay = 0.005;
  expect_one_run(w, spell_out(w, 4, 8, [&](int r, std::uint64_t k) {
                   return (k * 4 + r) * w.request_size;
                 }));
}

TEST(OneReader, StridedUnixWorkloadIsItsTrace) {
  // Stride 1, so the walk reads the whole file: a larger stride leaves
  // records past the trace's last read, which replay would not populate.
  WorkloadSpec w = small_spec(IoMode::kUnix);
  w.pattern = AccessPattern::kStrided;
  w.stride = 1;
  w.compute_delay = 0.005;
  expect_one_run(w, spell_out(w, 4, 8, [&](int r, std::uint64_t k) {
                   return (r + k * 4 * w.stride) * w.request_size;
                 }));
}

TEST(OneReader, ReplayVerifiesEveryMode) {
  for (IoMode mode : pfs::all_io_modes()) {
    SCOPED_TRACE(std::string(to_string(mode)));
    const AccessTrace t = AccessTrace::sequential(mode, 4, 8, 64 * 1024, 0.002);
    const auto res = replay_trace(small_machine(), t, /*prefetch_on=*/false, {},
                                  /*verify=*/true);
    EXPECT_EQ(res.reads, 32u);
    EXPECT_EQ(res.total_bytes, 32u * 64 * 1024);
    EXPECT_EQ(res.verify_failures, 0u);
  }
}

TEST(Pattern, MismatchDetection) {
  std::vector<std::byte> buf(100);
  fill_pattern(7, 1000, buf);
  EXPECT_EQ(find_pattern_mismatch(7, 1000, buf), kNoMismatch);
  EXPECT_NE(find_pattern_mismatch(8, 1000, buf), kNoMismatch);
  buf[42] = static_cast<std::byte>(static_cast<unsigned char>(buf[42]) ^ 0xff);
  EXPECT_EQ(find_pattern_mismatch(7, 1000, buf), 42u);
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"Request", "BW (MB/s)"});
  t.add_row({"64KB", "3.10"});
  t.add_row({"1MB", "12.75"});
  t.add_rule();
  t.add_row({"total", "15.85"});
  const auto s = t.str();
  EXPECT_NE(s.find("Request"), std::string::npos);
  EXPECT_NE(s.find("64KB"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Every line has the same length (alignment).
  std::size_t line_len = std::string::npos;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    const auto len = nl - pos;
    if (line_len == std::string::npos) line_len = len;
    EXPECT_EQ(len, line_len);
    pos = nl + 1;
  }
}

TEST(Report, TextTableRejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, ByteFormatting) {
  EXPECT_EQ(fmt_bytes(64 * 1024), "64KB");
  EXPECT_EQ(fmt_bytes(1024 * 1024), "1MB");
  EXPECT_EQ(fmt_bytes(8ull * 1024 * 1024 * 1024), "8GB");
  EXPECT_EQ(fmt_bytes(1000), "1000B");
  EXPECT_EQ(fmt_bytes(1536), "1536B");
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_time(0.4123), "0.412s");
  EXPECT_EQ(fmt_percent(0.875), "87.5%");
}

// Regression: a zero-op experiment (or a zero-bandwidth baseline in a
// --compare speedup) divides 0/0, and the NaN used to print as "nan"/"nan%"
// mid-table. Non-finite values now render as "n/a" / "0.0%".
TEST(Report, NonFiniteValuesDoNotPrintNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fmt_double(nan), "n/a");
  EXPECT_EQ(fmt_double(inf), "n/a");
  EXPECT_EQ(fmt_double(-inf), "n/a");
  EXPECT_EQ(fmt_percent(nan), "0.0%");
  EXPECT_EQ(fmt_percent(inf), "0.0%");
  EXPECT_EQ(fmt_percent(0.0), "0.0%");
  // fmt_time rides on fmt_double, so a NaN duration degrades the same way.
  EXPECT_EQ(fmt_time(nan), "n/as");
}

// ---- DriverGolden ----------------------------------------------------------
//
// Each case runs one workload driver on a small shape and pins its
// determinism digest, its event count and every result field it fills.
// Fields print as "name=value" pairs grouped one layer per line. A zero
// field is left out, so a counter that starts or stops counting shows up
// as a changed line. Doubles print as hex floats, which makes the
// comparison bit-exact. The footprint byte counts (event queue, frame
// arena, machine state) depend on the build's frame and object sizes and
// are not pinned.

class Fingerprint {
 public:
  Fingerprint& group(const char* name) {
    flush();
    line_ = name;
    line_ += ':';
    return *this;
  }
  Fingerprint& put(const std::string& key, std::uint64_t v) {
    if (v != 0) add(key, std::to_string(v));
    return *this;
  }
  Fingerprint& put(const std::string& key, double v) {
    if (v != 0) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%a", v);
      add(key, buf);
    }
    return *this;
  }
  Fingerprint& put_hex(const std::string& key, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    add(key, buf);
    return *this;
  }
  std::string str() {
    flush();
    return out_;
  }

 private:
  void add(const std::string& key, const std::string& v) {
    line_ += ' ' + key + '=' + v;
    filled_ = true;
  }
  void flush() {
    if (filled_) out_ += line_ + '\n';
    filled_ = false;
  }
  std::string out_;
  std::string line_;
  bool filled_ = false;
};

void latency_lines(Fingerprint& f, const sim::StreamingQuantiles& q) {
  f.group("latency")
      .put("count", static_cast<std::uint64_t>(q.count()))
      .put("sum", q.sum())
      .put("max", q.max());
}

/// The stack counters, digest and event count every driver reports.
void shared_lines(Fingerprint& f, const RunCounters& r) {
  f.group("run")
      .put_hex("digest", r.digest)
      .put("events", r.events_dispatched)
      .put("peak_pending", r.peak_pending_events);
  f.group("calls")
      .put("writes", r.writes)
      .put("bytes_written", r.bytes_written)
      .put("max_node_read_time", r.max_node_read_time)
      .put("max_node_write_time", r.max_node_write_time)
      .put("observed_write_bw_mbs", r.observed_write_bw_mbs);
  f.group("node_read_time");
  for (std::size_t n = 0; n < r.node_read_time.size(); ++n) {
    f.put("n" + std::to_string(n), r.node_read_time[n]);
  }
  f.group("rpc")
      .put("data", r.data_rpcs)
      .put("metadata", r.metadata_rpcs)
      .put("pointer", r.pointer_rpcs)
      .put("coalesced", r.coalesced_rpcs)
      .put("coalesced_extents", r.coalesced_extents)
      .put("map_refreshes", r.stripe_map_refreshes);
  f.group("mesh")
      .put("segmented_messages", r.mesh_segmented_messages)
      .put("segments", r.mesh_segments);
  for (const auto& [link, busy] : r.top_links) f.put("link" + std::to_string(link), busy);
  f.group("server")
      .put("batch_sweeps", r.server_batch_sweeps)
      .put("batched_extents", r.server_batched_extents);
  const auto& x = r.faults;
  f.group("faults")
      .put("injected", x.injected_events)
      .put("disk_transients", x.disk_transients)
      .put("reconstructed_reads", x.reconstructed_reads)
      .put("degraded_writes", x.degraded_writes)
      .put("retries", x.rpc_retries)
      .put("down_waits", x.rpc_down_waits)
      .put("timeouts", x.rpc_timeouts)
      .put("terminal", x.terminal_errors)
      .put("shed", x.shed_prefetches)
      .put("stale_epoch", x.stale_epoch_discards)
      .put("app_errors", x.app_errors)
      .put("node_recoveries", x.node_recoveries)
      .put("backoff_time", x.backoff_time)
      .put("recovery_wait_time", x.recovery_wait_time)
      .put("node_recovery_time", x.node_recovery_time);
  const auto& p = r.prefetch;
  f.group("prefetch")
      .put("issued", p.issued)
      .put("hits_ready", p.hits_ready)
      .put("hits_in_flight", p.hits_in_flight)
      .put("misses", p.misses)
      .put("stale", p.stale_discarded)
      .put("wasted", p.wasted)
      .put("shed", p.shed)
      .put("epoch_discarded", p.epoch_discarded)
      .put("fault_pauses", p.fault_pauses)
      .put("fault_skips", p.fault_skips)
      .put("bytes_prefetched", p.bytes_prefetched)
      .put("bytes_served", p.bytes_served)
      .put("wait_time", p.wait_time)
      .put("ramp_ups", p.depth_ramp_ups)
      .put("ramp_downs", p.depth_ramp_downs)
      .put("collapses", p.depth_collapses)
      .put("wasted_bytes", p.wasted_bytes);
  for (std::size_t b = 0; b < p.depth_hist.size(); ++b) {
    f.put("depth" + std::to_string(b), p.depth_hist[b]);
  }
  f.group("cache")
      .put("lookups", r.cache_lookups)
      .put("hits", r.cache_hits)
      .put("inserts", r.cache_inserts)
      .put("evictions", r.cache_evictions)
      .put("journal_flushes", r.cache_journal_flushes)
      .put("recoveries", r.cache_recoveries)
      .put("recovered_blocks", r.cache_recovered_blocks)
      .put("torn_dropped", r.cache_torn_dropped)
      .put("stale_dropped", r.cache_stale_dropped)
      .put("warm_lookups", r.cache_warm_lookups)
      .put("warm_hits", r.cache_warm_hits)
      .put("warm_hit_ratio", r.cache_warm_hit_ratio)
      .put("recovery_time", r.cache_recovery_time);
  f.group("token")
      .put("rpcs", r.token_rpcs)
      .put("local_grants", r.token_local_grants)
      .put("grants", r.token_grants)
      .put("revocations", r.token_revocations)
      .put("splits", r.token_splits)
      .put("invalidations", r.token_invalidations);
  f.group("wb")
      .put("writes", r.wb_writes)
      .put("read_hits", r.wb_read_hits)
      .put("flush_ops", r.wb_flush_ops)
      .put("flushed_bytes", r.wb_flushed_bytes)
      .put("revocation_flushes", r.wb_revocation_flushes)
      .put("fsync_flushes", r.wb_fsync_flushes)
      .put("capacity_evictions", r.wb_capacity_evictions)
      .put("peak_dirty_bytes", r.wb_peak_dirty_bytes);
}

std::string fingerprint(const ExperimentResult& r) {
  Fingerprint f;
  shared_lines(f, r);
  f.group("reads")
      .put("reads", r.reads)
      .put("total_bytes", r.total_bytes)
      .put("verify_failures", r.verify_failures)
      .put("wall_elapsed", r.wall_elapsed)
      .put("mean_read_call_time", r.mean_read_call_time)
      .put("observed_read_bw_mbs", r.observed_read_bw_mbs)
      .put("wall_bw_mbs", r.wall_bw_mbs);
  latency_lines(f, r.read_latencies);
  return f.str();
}

std::string fingerprint(const OpenArrivalResult& r) {
  Fingerprint f;
  shared_lines(f, r);
  f.group("arrivals")
      .put("issued", r.issued)
      .put("completed", r.completed)
      .put("total_bytes", r.total_bytes)
      .put("sim_elapsed", r.sim_elapsed)
      .put("wall_bw_mbs", r.wall_bw_mbs)
      .put("backlogged", r.backlogged)
      .put("backlog_time", r.backlog_time);
  latency_lines(f, r.latencies);
  return f.str();
}

TEST(DriverGolden, ExperimentPrefetchCacheTierCrash) {
  MachineSpec m = small_machine();
  m.pfs.ufs.cache_tier.enabled = true;
  WorkloadSpec w = small_spec(IoMode::kRecord);
  w.compute_delay = 0.005;
  w.prefetch = true;
  w.faults = fault::parse_plan("crash:io=1,at=0.01,outage=0.05");
  EXPECT_EQ(fingerprint(Experiment(m).run(w)), R"(run: digest=155727cca43a6fc9 events=490 peak_pending=24
calls: max_node_read_time=0x1.f4cf8174bf10cp-5
node_read_time: n0=0x1.7450d170673ap-7 n1=0x1.f4cf8174bf10cp-5 n2=0x1.7450d170673ap-7 n3=0x1.7450d170673ap-7
rpc: data=44 metadata=5
mesh: link0=0x1.26891f72c969ep-7 link4=0x1.88b82c31fab04p-8 link19=0x1.baa64d5606908p-9 link31=0x1.b9e87ad952a36p-9 link27=0x1.b9e7234064804p-9
faults: injected=1 retries=1 down_waits=1 stale_epoch=4 node_recoveries=1 backoff_time=0x1.192a77fd92b78p-9 recovery_wait_time=0x1.7f713ad9d60bcp-5 node_recovery_time=0x1.a468b8df688p-13
prefetch: issued=10 hits_ready=6 misses=26 epoch_discarded=4 fault_pauses=4 fault_skips=21 bytes_prefetched=655360 bytes_served=393216 wasted_bytes=262144 depth0=1 depth1=10
cache: lookups=36 hits=36 inserts=32 journal_flushes=4 recoveries=1 recovered_blocks=8 warm_lookups=6 warm_hits=6 warm_hit_ratio=0x1p+0 recovery_time=0x1.a468b8df688p-13
reads: reads=32 total_bytes=2097152 wall_elapsed=0x1.89c3e9b02217ep-4 mean_read_call_time=0x1.86060f44863e2p-9 observed_read_bw_mbs=0x1.126ed9f26e7bcp+5 wall_bw_mbs=0x1.5d09aabcbd2abp+4
latency: count=32 sum=0x1.86060f44863e2p-4 max=0x1.9c8a3ed8c685p-5
)");
}

OpenArrivalSpec golden_arrivals() {
  OpenArrivalSpec s;
  s.tenants = 4;
  s.requests_per_client = 8;
  s.request_size = 64 * 1024;
  s.tenant_file_size = 1024 * 1024;
  s.mean_interarrival = 0.02;
  s.seed = 7;
  return s;
}

TEST(DriverGolden, OpenArrivalReadOnly) {
  MachineSpec m;
  m.ncompute = 16;
  m.nio = 4;
  EXPECT_EQ(fingerprint(run_open_arrival(m, golden_arrivals())), R"(run: digest=ff84af6130c43871 events=2705 peak_pending=31
calls: max_node_read_time=0x1.510ae213b1cd5p-1
node_read_time: n0=0x1.0e14d2b260cd2p-1 n1=0x1.d70c3897b1d9bp-2 n2=0x1.4fc4912f1f249p-1 n3=0x1.c97b286b38e1fp-2 n4=0x1.34c88dcd6df5ep-1 n5=0x1.3177920b2236dp-1 n6=0x1.f3706b9b45c86p-2 n7=0x1.9d224737969d6p-2 n8=0x1.0c158d388be5p-1 n9=0x1.e52648a9115dap-2 n10=0x1.510ae213b1cd5p-1 n11=0x1.2ad8dac8f9a9fp-1 n12=0x1.47e14beff3fdap-1 n13=0x1.3c2e4cbb675cap-1 n14=0x1.77a380e0bfb6ap-2 n15=0x1.25eb510e0c038p-1
rpc: data=144 metadata=20
mesh: link69=0x1.144e46cd7b23ap-6 link73=0x1.def4109af68aap-7 link65=0x1.890fe4bd0fc68p-7 link68=0x1.3f79e87950a3dp-7 link4=0x1.26da842ce991cp-7
arrivals: issued=128 completed=128 total_bytes=8388608 sim_elapsed=0x1.549cd30840f68p-1 wall_bw_mbs=0x1.938154d1a799p+3 backlogged=111 backlog_time=0x1.608fa2530b3dep+4
latency: count=128 sum=0x1.ea875a0cf5c01p+4 max=0x1.1435fe28b0f3cp-1
)");
}

TEST(DriverGolden, OpenArrivalWithWrites) {
  MachineSpec m;
  m.ncompute = 16;
  m.nio = 4;
  OpenArrivalSpec s = golden_arrivals();
  s.write_fraction = 0.3;
  EXPECT_EQ(fingerprint(run_open_arrival(m, s)), R"(run: digest=ab078352e5bea750 events=2799 peak_pending=31
calls: writes=39 bytes_written=2555904 max_node_read_time=0x1.498d3be40c1f2p-1 max_node_write_time=0x1.04f7a19bb1d6bp-1 observed_write_bw_mbs=0x1.40edb5f2d4adfp+2
node_read_time: n0=0x1.cba0877b98d6ap-3 n1=0x1.81f50a842f1ap-2 n2=0x1.07e6f8e5f1fbep-1 n3=0x1.ec3e8c7bb92f7p-2 n4=0x1.6a6b854c41f69p-2 n5=0x1.44e00c914ab56p-3 n6=0x1.066fb0db3e6ffp-1 n7=0x1.6ba9c8a0b5f48p-2 n8=0x1.fbd9ab34ae563p-2 n9=0x1.8deb3d06b5a6cp-2 n10=0x1.0f83dde0a3284p-1 n11=0x1.498d3be40c1f2p-1 n12=0x1.27deae7f455a5p-2 n13=0x1.aa6714152bfd4p-2 n14=0x1.62aee5a80b3c9p-2 n15=0x1.2a203bfdcdcf3p-2
rpc: data=144 metadata=20
mesh: link4=0x1.7ca7d29d89ca4p-7 link50=0x1.647143ba140d8p-7 link69=0x1.585ec1efdb4aep-7 link73=0x1.583e1d286009p-7 link77=0x1.4bd7e99ddc993p-7
arrivals: issued=128 completed=128 total_bytes=5832704 sim_elapsed=0x1.80f6b5d28e3a9p-1 wall_bw_mbs=0x1.f07a6378c61e2p+2 backlogged=111 backlog_time=0x1.70938cf62e6acp+4
latency: count=128 sum=0x1.03eb15362aaf6p+5 max=0x1.208b8e7b9320ap-1
)");
}

WriteWorkloadSpec golden_writes(WriteWorkloadKind kind) {
  WriteWorkloadSpec s;
  s.kind = kind;
  s.machine = small_machine();
  s.writers = 4;
  s.rounds = 4;
  s.request_size = 64 * 1024;
  s.compute_delay = 0.002;
  return s;
}

TEST(DriverGolden, CheckpointOwnSlots) {
  EXPECT_EQ(fingerprint(run_write_workload(golden_writes(WriteWorkloadKind::kCheckpoint))),
            R"(run: digest=d102c9284905b075 events=847 peak_pending=24
calls: writes=16 bytes_written=1048576 max_node_read_time=0x1.24d108520f2e8p-4 max_node_write_time=0x1.7472bd7432e26p-11 observed_write_bw_mbs=0x1.7103d3789a001p+10
node_read_time: n0=0x1.21cf8893e2cafp-4 n1=0x1.234ecc09a8316p-4 n2=0x1.24d108520f2e8p-4 n3=0x1.204ef9caa579cp-4
rpc: data=32 metadata=4
mesh: link2=0x1.924f03cf5afe1p-10 link16=0x1.8faf8af28cd02p-10 link20=0x1.8d8b2adfa1784p-10 link31=0x1.8be1e39698f6cp-10 link27=0x1.8ba9847f87376p-10
token: rpcs=32 grants=32 revocations=16 invalidations=16
wb: writes=16 flush_ops=16 flushed_bytes=1048576 fsync_flushes=16 peak_dirty_bytes=65536
reads: reads=16 total_bytes=1048576 wall_elapsed=0x1.50c9fc8716b4cp-3 wall_bw_mbs=0x1.98161271ab039p+2
latency: count=16 sum=0x1.639232ae31125p-2 max=0x1.643fdc00548e6p-6
)");
}

TEST(DriverGolden, CheckpointConflictingCrash) {
  WriteWorkloadSpec s = golden_writes(WriteWorkloadKind::kCheckpoint);
  s.conflicting = true;
  s.faults = fault::parse_plan("crash:io=1,at=0.01,outage=0.05");
  EXPECT_EQ(fingerprint(run_write_workload(s)), R"(run: digest=447125de2280aa94 events=907 peak_pending=8
calls: writes=16 bytes_written=1048576 max_node_read_time=0x1.b0b0abd2fa7eap-3 max_node_write_time=0x1.324957922f5abp-3 observed_write_bw_mbs=0x1.c0ba0eab93ccbp+2
node_read_time: n0=0x1.27321d2caefacp-3 n1=0x1.b0b0abd2fa7eap-3 n2=0x1.834f3dceb47dcp-3 n3=0x1.45e680f6f34c4p-3
rpc: data=32 metadata=4
mesh: link2=0x1.9198dcbc8a229p-10 link9=0x1.8da7edacb4f95p-10 link20=0x1.8da7edacb4f94p-10 link27=0x1.8b87634ebb2a3p-10 link31=0x1.8b82c942661fdp-10
faults: injected=1
token: rpcs=28 local_grants=4 grants=28 revocations=16 invalidations=16
wb: writes=16 flush_ops=16 flushed_bytes=1048576 revocation_flushes=12 fsync_flushes=4 peak_dirty_bytes=65536
reads: reads=16 total_bytes=1048576 wall_elapsed=0x1.24aefa6bf3ccp-1 wall_bw_mbs=0x1.d59508478074fp+0
latency: count=16 sum=0x1.0774cfa8e6844p-1 max=0x1.338df976b3578p-4
)");
}

TEST(DriverGolden, ProducerConsumer) {
  WriteWorkloadSpec s = golden_writes(WriteWorkloadKind::kProducerConsumer);
  s.writers = 3;
  EXPECT_EQ(fingerprint(run_write_workload(s)), R"(run: digest=9fe5e3fb0a94051f events=343 peak_pending=6
calls: writes=4 bytes_written=262144 max_node_read_time=0x1.b63e70b482cd3p-3 max_node_write_time=0x1.1d958c00478f6p-11 observed_write_bw_mbs=0x1.e14168f10ecc6p+8
node_read_time: n1=0x1.306b19dff0444p-3 n2=0x1.b63e70b482cd3p-3
rpc: data=12 metadata=3
mesh: link27=0x1.89a4966b8ba6bp-10 link23=0x1.89972a723e486p-10 link0=0x1.269b3e035842ep-10 link16=0x1.8c301e683ea7cp-11 link20=0x1.8a8a4aa875eep-11
token: rpcs=12 grants=12 revocations=4 invalidations=4
wb: writes=4 flush_ops=4 flushed_bytes=262144 revocation_flushes=4 peak_dirty_bytes=65536
reads: reads=8 total_bytes=524288 wall_elapsed=0x1.c4334f6814535p-3 wall_bw_mbs=0x1.2fef077928c95p+0
latency: count=4 sum=0x1.5c7fac9af1ce1p-11 max=0x1.5c7fac9af2p-13
)");
}

TEST(DriverGolden, Mixed) {
  WriteWorkloadSpec s = golden_writes(WriteWorkloadKind::kMixed);
  s.machine.ncompute = 8;
  s.tenants = 2;
  s.requests_per_client = 8;
  s.seed = 3;
  EXPECT_EQ(fingerprint(run_write_workload(s)), R"(run: digest=b1ef91bc99802872 events=2311 peak_pending=27
calls: writes=33 bytes_written=2162688 max_node_read_time=0x1.ed2a831e1f938p-3 max_node_write_time=0x1.3826058423d88p-4 observed_write_bw_mbs=0x1.c60f2a67c9048p+4
node_read_time: n0=0x1.323d48149a48p-3 n1=0x1.ed2a831e1f938p-3 n2=0x1.7d199460f401p-3 n3=0x1.867ee1c9712a4p-4 n4=0x1.40e9e5e9018a4p-4 n5=0x1.7765a463dfb48p-3 n6=0x1.085df7a56934p-4 n7=0x1.d2ad93f7fdda4p-4
rpc: data=102 metadata=10
mesh: link4=0x1.63f076a63d224p-6 link0=0x1.32e03984d5cfap-6 link22=0x1.eb2456e4f569p-7 link18=0x1.c90699a22809ep-7 link26=0x1.adb1ed03d50f7p-7
token: rpcs=64 local_grants=8 grants=64 revocations=54 splits=22 invalidations=54
wb: writes=41 flush_ops=51 flushed_bytes=9371648 revocation_flushes=14 fsync_flushes=29 capacity_evictions=8 peak_dirty_bytes=2097152
reads: reads=31 total_bytes=2031616 wall_elapsed=0x1.64a44b899cb9cp-1 wall_bw_mbs=0x1.7553b2d4536bdp+1
latency: count=64 sum=0x1.c49b38e0cbd79p+0 max=0x1.8c57ae44715fp-4
)");
}

TEST(DriverGolden, ReplaySequentialRecordPrefetch) {
  const AccessTrace t = AccessTrace::sequential(IoMode::kRecord, 8, 16, 64 * 1024, 0.01);
  EXPECT_EQ(fingerprint(replay_trace(MachineSpec{}, t, /*prefetch_on=*/true, {},
                                     /*verify=*/true)),
            R"(run: digest=bbee75655029ed19 events=3225 peak_pending=48
calls: max_node_read_time=0x1.529d0491c4c2p-3
node_read_time: n0=0x1.51d8a2717b95p-3 n1=0x1.529d0491c4c2p-3 n2=0x1.529d0491c4c2p-3 n3=0x1.529d0491c4c2p-3 n4=0x1.529d0491c4c2p-3 n5=0x1.51d8a2717b95p-3 n6=0x1.51d8a2717b95p-3 n7=0x1.51d8a2717b95p-3
rpc: data=192 metadata=9
mesh: link0=0x1.269533d328a56p-5 link4=0x1.88c99ef61277ep-6 link35=0x1.8a5025874e12dp-7 link18=0x1.899711e751d8bp-7 link30=0x1.89750941723bdp-7
prefetch: issued=120 hits_in_flight=120 misses=8 bytes_prefetched=7864320 bytes_served=7864320 wait_time=0x1.ecb52df227852p-1 depth0=8 depth1=120
reads: reads=128 total_bytes=8388608 wall_elapsed=0x1.42e81be27bfacp-2 mean_read_call_time=0x1.523ad381a02b8p-7 observed_read_bw_mbs=0x1.95e3386be880ap+5 wall_bw_mbs=0x1.a9a16d43afdap+4
latency: count=128 sum=0x1.523ad381a02b8p+0 max=0x1.35c81fc01ba3p-6
)");
}

TEST(DriverGolden, ReplayStridedAsync) {
  const AccessTrace t = AccessTrace::strided(4, 8, 64 * 1024, 256 * 1024, 0.005);
  EXPECT_EQ(fingerprint(replay_trace(small_machine(), t, /*prefetch_on=*/false, {},
                                     /*verify=*/true)),
            R"(run: digest=3aeebeb4cc1160dc events=1097 peak_pending=24
calls: max_node_read_time=0x1.1216dfd1a0439p-1
node_read_time: n0=0x1.ebe300a2d85d6p-2 n1=0x1.fea695a2fb15ep-2 n2=0x1.08b515518ee73p-1 n3=0x1.1216dfd1a0439p-1
rpc: data=64 metadata=5
mesh: link0=0x1.1d5506c8b49b6p-5 link4=0x1.7c72b5f9def24p-6 link2=0x1.897a42d4c81f7p-7 link8=0x1.7c740d92cd157p-7 link14=0x1.7c740d92cd157p-7
reads: reads=32 total_bytes=2097152 wall_elapsed=0x1.2421da00a5ea7p-1 mean_read_call_time=0x1.0404301186391p-4 observed_read_bw_mbs=0x1.f570416fdcfaap+1 wall_bw_mbs=0x1.d677e2307c6b2p+1
latency: count=32 sum=0x1.0404301186391p+1 max=0x1.1b229d70cf668p-4
)");
}

}  // namespace
}  // namespace ppfs::workload
