// TraceScope: the observability layer's core contracts.
//
// The load-bearing property is digest neutrality — attaching a TraceSink to
// a simulation changes NOTHING about the schedule. The two golden digests
// from test_sweep.cpp are re-pinned here with tracing on; if instrumentation
// ever schedules an event, consults the RNG, or perturbs dispatch order,
// these diverge. On top of that: the kernel track mirrors the dispatch
// counter exactly, RPC spans partition the report's per-class RPC counters,
// the ring buffer keeps the last N records, and the exporters round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "workload/experiment.hpp"
#include "workload/write_workload.hpp"

namespace ppfs {
namespace {

using trace::TraceKind;
using trace::TraceRecord;
using trace::TraceSink;
using trace::TraceTrack;
using workload::Experiment;
using workload::ExperimentResult;
using workload::WorkloadSpec;

WorkloadSpec golden_record_spec() {
  WorkloadSpec w;  // defaults: M_RECORD, 64K requests
  w.file_size = 1024 * 1024;
  return w;
}

WorkloadSpec golden_unix_prefetch_spec() {
  WorkloadSpec w;
  w.mode = pfs::IoMode::kUnix;
  w.file_size = 1024 * 1024;
  w.prefetch = true;
  w.compute_delay = 0.005;
  return w;
}

std::uint64_t count(const TraceSink& sink, TraceTrack track, TraceKind kind,
                    int event = -1) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const TraceRecord& r = sink.at(i);
    if (r.track == track && r.kind == kind && (event < 0 || r.event == event)) ++n;
  }
  return n;
}

// --- digest neutrality ------------------------------------------------------

TEST(TraceNeutrality, GoldenDigestsIdenticalWithTracingOn) {
  Experiment exp;
  // The same two scenarios whose digests test_sweep.cpp pins untraced.
  {
    TraceSink sink;
    const ExperimentResult r = exp.run(golden_record_spec(), &sink);
    EXPECT_EQ(r.digest, 0x0c1e17e218fb1117ull);
    EXPECT_EQ(r.events_dispatched, 391u);
    EXPECT_GT(sink.size(), 0u);
  }
  {
    TraceSink sink;
    const ExperimentResult r = exp.run(golden_unix_prefetch_spec(), &sink);
    EXPECT_EQ(r.digest, 0x6355a48ff39b604dull);
    EXPECT_EQ(r.events_dispatched, 825u);
  }
}

TEST(TraceNeutrality, TracedAndUntracedRunsMatchBitForBit) {
  Experiment exp;
  WorkloadSpec w = golden_unix_prefetch_spec();
  w.verify = true;
  const ExperimentResult off = exp.run(w);
  TraceSink sink;
  const ExperimentResult on = exp.run(w, &sink);
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.events_dispatched, on.events_dispatched);
  EXPECT_EQ(off.total_bytes, on.total_bytes);
  EXPECT_EQ(off.wall_elapsed, on.wall_elapsed);
  EXPECT_EQ(on.verify_failures, 0u);
}

TEST(TraceNeutrality, TracedCheckpointMatchesAndCountsTokenRpcs) {
  workload::WriteWorkloadSpec w;
  w.kind = workload::WriteWorkloadKind::kCheckpoint;
  w.writers = 4;
  w.rounds = 4;
  const ExperimentResult off = workload::run_write_workload(w);
  TraceSink sink;
  const ExperimentResult on = workload::run_write_workload(w, &sink);
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.events_dispatched, on.events_dispatched);
  EXPECT_EQ(on.verify_failures, 0u);
  // One token span per acquisition that reached the manager, the same
  // count the report's token_rpcs gives.
  EXPECT_GT(on.token_rpcs, 0u);
  EXPECT_EQ(count(sink, TraceTrack::kRpc, TraceKind::kSpanBegin, trace::code::kRpcToken),
            on.token_rpcs);
}

// --- per-track consistency with the report's counters -----------------------

TEST(TraceContent, KernelInstantsMirrorTheDispatchCounter) {
  Experiment exp;
  TraceSink sink;
  const ExperimentResult r = exp.run(golden_record_spec(), &sink);
  // One kernel instant per dispatched event: emitted right after the digest
  // mix, so the two counters can never drift.
  EXPECT_EQ(count(sink, TraceTrack::kKernel, TraceKind::kInstant),
            r.events_dispatched);
}

TEST(TraceContent, RpcSpansPartitionTheRpcCounters) {
  Experiment exp;
  TraceSink sink;
  WorkloadSpec w = golden_unix_prefetch_spec();
  const ExperimentResult r = exp.run(w, &sink);

  const auto begins = [&](std::uint8_t cls) {
    return count(sink, TraceTrack::kRpc, TraceKind::kSpanBegin, cls);
  };
  // Every ++counter site emits exactly one span of the matching class; the
  // coalesced class splits out of data_rpcs exactly like the report does.
  EXPECT_EQ(begins(trace::code::kRpcData) + begins(trace::code::kRpcCoalesced),
            r.data_rpcs);
  EXPECT_EQ(begins(trace::code::kRpcCoalesced), r.coalesced_rpcs);
  EXPECT_EQ(begins(trace::code::kRpcMetadata), r.metadata_rpcs);
  EXPECT_EQ(begins(trace::code::kRpcPointer), r.pointer_rpcs);
  EXPECT_GT(r.data_rpcs, 0u);
  EXPECT_GT(r.pointer_rpcs, 0u);  // M_UNIX moves the shared pointer

  // Healthy run: every span that begins also ends, and async ids pair 1:1.
  EXPECT_EQ(count(sink, TraceTrack::kRpc, TraceKind::kSpanBegin),
            count(sink, TraceTrack::kRpc, TraceKind::kSpanEnd));
  std::map<std::uint64_t, int> open;
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const TraceRecord& rec = sink.at(i);
    if (rec.track != TraceTrack::kRpc) continue;
    if (rec.kind == TraceKind::kSpanBegin) {
      EXPECT_EQ(++open[rec.id], 1) << rec.id;
    } else if (rec.kind == TraceKind::kSpanEnd) {
      EXPECT_EQ(--open[rec.id], 0) << rec.id;
    }
  }
  for (const auto& [id, n] : open) EXPECT_EQ(n, 0) << "unclosed rpc span " << id;
}

TEST(TraceContent, CoalescedRunTagsCoalescedSpans) {
  workload::MachineSpec m;
  m.pfs.coalesce_rpcs = true;
  Experiment exp(m);
  TraceSink sink;
  const ExperimentResult r = exp.run(golden_record_spec(), &sink);
  EXPECT_GT(r.coalesced_rpcs, 0u);
  EXPECT_EQ(count(sink, TraceTrack::kRpc, TraceKind::kSpanBegin,
                  trace::code::kRpcCoalesced),
            r.coalesced_rpcs);
}

TEST(TraceContent, DiskAndPrefetchTracksArePopulated) {
  Experiment exp;
  TraceSink sink;
  const ExperimentResult r = exp.run(golden_unix_prefetch_spec(), &sink);
  EXPECT_GT(count(sink, TraceTrack::kDisk, TraceKind::kSpanBegin), 0u);
  EXPECT_GT(count(sink, TraceTrack::kMeshLink, TraceKind::kSpanBegin), 0u);
  // Prefetch issues show up as instants; occupancy as counter samples, one
  // per resident-set change (so an even count: every +1 has its -1).
  EXPECT_EQ(count(sink, TraceTrack::kPrefetch, TraceKind::kInstant,
                  trace::code::kPrefetchIssue),
            r.prefetch.issued);
  const auto occ = count(sink, TraceTrack::kPrefetch, TraceKind::kCounter,
                         trace::code::kPrefetchOccupancy);
  EXPECT_GT(occ, 0u);
  EXPECT_EQ(occ % 2, 0u);
}

// --- sink mechanics ---------------------------------------------------------

TEST(TraceSinkTest, UnboundedSinkGrowsAndKeepsOrder) {
  TraceSink sink;
  for (int i = 0; i < 10000; ++i) {
    sink.record(TraceRecord(i * 0.001, TraceKind::kInstant, TraceTrack::kKernel, 0, 0,
                            0, static_cast<std::uint64_t>(i)));
  }
  ASSERT_EQ(sink.size(), 10000u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_FALSE(sink.is_ring());
  for (std::size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink.at(i).a, i);
  }
}

TEST(TraceSinkTest, RingKeepsExactlyTheLastN) {
  TraceSink sink(64);
  EXPECT_TRUE(sink.is_ring());
  for (int i = 0; i < 1000; ++i) {
    sink.record(TraceRecord(i * 0.001, TraceKind::kInstant, TraceTrack::kKernel, 0, 0,
                            0, static_cast<std::uint64_t>(i)));
  }
  ASSERT_EQ(sink.size(), 64u);
  EXPECT_EQ(sink.dropped(), 1000u - 64u);
  // Chronological: at(0) is the oldest retained record (936), at(63) the
  // newest (999).
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(sink.at(i).a, 936u + i);
  }
}

TEST(TraceSinkTest, SpanIdsAreUniqueAndMonotone) {
  TraceSink sink;
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = sink.new_span();
    EXPECT_GT(id, prev);
    prev = id;
  }
}

// --- exporters --------------------------------------------------------------

TEST(TraceExport, BinaryRoundTripsExactly) {
  TraceSink sink(32);
  for (int i = 0; i < 100; ++i) {
    sink.record(TraceRecord(i * 0.5, TraceKind::kSpanBegin, TraceTrack::kDisk,
                            trace::code::kDiskRead, i % 4, 0,
                            static_cast<std::uint64_t>(i) * 4096, 7, trace::kFlagWrite));
  }
  std::stringstream buf;
  trace::write_binary(sink, buf);
  std::vector<TraceRecord> back;
  ASSERT_TRUE(trace::load_binary(buf, back));
  const auto snap = trace::snapshot(sink);
  ASSERT_EQ(back.size(), snap.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].ts, snap[i].ts);
    EXPECT_EQ(back[i].a, snap[i].a);
    EXPECT_EQ(back[i].b, snap[i].b);
    EXPECT_EQ(back[i].resource, snap[i].resource);
    EXPECT_EQ(static_cast<int>(back[i].kind), static_cast<int>(snap[i].kind));
    EXPECT_EQ(back[i].flags, snap[i].flags);
  }
  std::stringstream junk("NOTATRACE.....");
  EXPECT_FALSE(trace::load_binary(junk, back));
}

TEST(TraceExport, ChromeJsonIsWellFormedForAFullRun) {
  Experiment exp;
  TraceSink sink;
  exp.run(golden_unix_prefetch_spec(), &sink);
  std::ostringstream out;
  trace::write_chrome_json(sink, out);
  const std::string json = out.str();
  ASSERT_GT(json.size(), 2u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.find_last_not_of(" \n"), json.rfind(']'));
  // Track rows the viewer groups by must all be named.
  EXPECT_NE(json.find("kernel dispatch"), std::string::npos);
  EXPECT_NE(json.find("\"link "), std::string::npos);
  EXPECT_NE(json.find("\"disk "), std::string::npos);
  EXPECT_NE(json.find("\"rpc rank "), std::string::npos);
  EXPECT_NE(json.find("\"prefetch rank "), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
}

// --- derived metrics --------------------------------------------------------

TEST(TraceMetricsTest, ComputedFromTheSameRecordsAsTheReport) {
  Experiment exp;
  TraceSink sink;
  const ExperimentResult r = exp.run(golden_unix_prefetch_spec(), &sink);
  const auto m = trace::compute_metrics(trace::snapshot(sink));
  EXPECT_EQ(m.kernel_dispatches, r.events_dispatched);
  EXPECT_GT(m.t_end, 0.0);
  // Disk utilization must be visible on an I/O-bound run.
  const auto& disk = m.utilization[static_cast<int>(TraceTrack::kDisk)];
  EXPECT_GT(disk.resources, 0);
  EXPECT_GT(disk.busy_s, 0.0);
  EXPECT_GT(disk.avg, 0.0);
  EXPECT_LE(disk.peak, 1.0 + 1e-9);
  // The data-RPC latency histogram covers every data RPC.
  const auto& lat = m.rpc[trace::code::kRpcData];
  EXPECT_EQ(lat.count, r.data_rpcs);
  EXPECT_GT(lat.p50, 0.0);
  EXPECT_LE(lat.p50, lat.p95);
  EXPECT_LE(lat.p95, lat.p99);
  EXPECT_LE(lat.p99, lat.max);
  std::uint64_t hist = 0;
  for (const auto n : lat.log2_us) hist += n;
  EXPECT_EQ(hist, lat.count);
  // Occupancy stats come from the prefetch counter samples.
  EXPECT_GT(m.occupancy.samples, 0u);
  EXPECT_GE(m.occupancy.max_buffers, 1u);
  EXPECT_FALSE(trace::format_metrics(m).empty());
}

}  // namespace
}  // namespace ppfs
