// Tests for CLI option parsing and trace capture/replay.
#include <gtest/gtest.h>

#include "workload/options.hpp"
#include "workload/trace.hpp"

namespace ppfs::workload {
namespace {

// --- parse_size / parse_mode ---

TEST(ParseSize, Suffixes) {
  EXPECT_EQ(parse_size("512"), 512u);
  EXPECT_EQ(parse_size("512B"), 512u);
  EXPECT_EQ(parse_size("64K"), 64u * 1024);
  EXPECT_EQ(parse_size("64KB"), 64u * 1024);
  EXPECT_EQ(parse_size("8M"), 8u * 1024 * 1024);
  EXPECT_EQ(parse_size("2g"), 2ull * 1024 * 1024 * 1024);
}

TEST(ParseSize, Malformed) {
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("abc"), std::invalid_argument);
  EXPECT_THROW(parse_size("12X"), std::invalid_argument);
}

// Regression: these inputs used to escape as raw std::stoull exceptions
// (std::out_of_range is NOT an invalid_argument, so the CLI's catch block
// missed it) or silently wrapped. All must surface as parse errors now.
TEST(ParseSize, JunkOverflowAndNegative) {
  EXPECT_THROW(parse_size("huge"), std::invalid_argument);
  EXPECT_THROW(parse_size("-1"), std::invalid_argument);
  EXPECT_THROW(parse_size("-64K"), std::invalid_argument);
  EXPECT_THROW(parse_size("99999999999999999999999"), std::invalid_argument);  // > u64
  EXPECT_THROW(parse_size("17179869184G"), std::invalid_argument);  // suffix overflow
}

TEST(ParseMode, NamesAndPrefixes) {
  EXPECT_EQ(parse_mode("M_RECORD"), pfs::IoMode::kRecord);
  EXPECT_EQ(parse_mode("record"), pfs::IoMode::kRecord);
  EXPECT_EQ(parse_mode("ASYNC"), pfs::IoMode::kAsync);
  EXPECT_EQ(parse_mode("m_log"), pfs::IoMode::kLog);
  EXPECT_THROW(parse_mode("M_NOPE"), std::invalid_argument);
}

// --- parse_cli ---

TEST(ParseCli, DefaultsAndBasics) {
  auto opt = parse_cli({});
  EXPECT_EQ(opt.workload.mode, pfs::IoMode::kRecord);
  EXPECT_EQ(opt.machine.ncompute, 8);
  EXPECT_FALSE(opt.workload.prefetch);
  EXPECT_FALSE(opt.show_help);
}

TEST(ParseCli, FullConfiguration) {
  auto opt = parse_cli({"--mode", "M_ASYNC", "--request", "256K", "--file", "32M",
                        "--delay", "0.05", "--prefetch", "--depth", "3", "--prefetch-adaptive",
                        "--ncompute", "4", "--nio", "2", "--scsi16", "--elevator",
                        "--buffered", "--readahead", "2", "--own-region", "--verify",
                        "--compare"});
  EXPECT_EQ(opt.workload.mode, pfs::IoMode::kAsync);
  EXPECT_EQ(opt.workload.request_size, 256u * 1024);
  EXPECT_EQ(opt.workload.file_size, 32u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(opt.workload.compute_delay, 0.05);
  EXPECT_TRUE(opt.workload.prefetch);
  EXPECT_EQ(opt.workload.prefetch_cfg.depth, 3u);
  EXPECT_TRUE(opt.workload.prefetch_cfg.adaptive_depth);
  EXPECT_EQ(opt.machine.ncompute, 4);
  EXPECT_EQ(opt.machine.nio, 2);
  EXPECT_DOUBLE_EQ(opt.machine.raid.bus_bandwidth, 16.0e6);
  EXPECT_EQ(opt.machine.raid.disk.scheduler, hw::DiskSched::kElevator);
  EXPECT_FALSE(opt.workload.use_fastpath);
  EXPECT_EQ(opt.machine.pfs.ufs.readahead_blocks, 2u);
  EXPECT_EQ(opt.workload.pattern, AccessPattern::kOwnRegion);
  EXPECT_TRUE(opt.workload.verify);
  EXPECT_TRUE(opt.compare);
}

TEST(ParseCli, StripeOptionsBuildAttrs) {
  auto opt = parse_cli({"--sunit", "256K", "--sgroup", "4"});
  ASSERT_TRUE(opt.workload.attrs.has_value());
  EXPECT_EQ(opt.workload.attrs->stripe_unit, 256u * 1024);
  EXPECT_EQ(opt.workload.attrs->stripe_group.size(), 4u);
}

TEST(ParseCli, Errors) {
  EXPECT_THROW(parse_cli({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--request"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--sgroup", "16"}), std::invalid_argument);  // > nio
  EXPECT_THROW(parse_cli({"--delay", "-1"}), std::invalid_argument);
}

// Regression: "--mesh-mtu=huge" aborted the process (uncaught
// std::invalid_argument from stoull inside the parser, before CliError
// existed) and "--mesh-mtu 99999999999999999999999" escaped as
// std::out_of_range past the driver's catch. Both must now throw a
// CliError that names the offending flag.
TEST(ParseCli, BadValuesThrowCliErrorNamingTheFlag) {
  try {
    parse_cli({"--mesh-mtu", "huge"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(e.flag(), "--mesh-mtu");
    EXPECT_NE(std::string(e.what()).find("--mesh-mtu"), std::string::npos);
  }
  try {
    parse_cli({"--mesh-mtu=huge"});  // =value spelling hits the same path
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(e.flag(), "--mesh-mtu");
  }
  try {
    parse_cli({"--request", "99999999999999999999999"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(e.flag(), "--request");
  }
  // Negative counts and sizes are rejected, not wrapped to huge values.
  EXPECT_THROW(parse_cli({"--file", "-8M"}), CliError);
  EXPECT_THROW(parse_cli({"--depth", "-2"}), CliError);
  EXPECT_THROW(parse_cli({"--depth", "0"}), CliError);
  EXPECT_THROW(parse_cli({"--jobs", "junk"}), CliError);
  EXPECT_THROW(parse_cli({"--readahead", "-1"}), CliError);
  // CliError derives std::invalid_argument: old catch sites still work.
  EXPECT_THROW(parse_cli({"--sunit", "abc"}), std::invalid_argument);
}

TEST(ParseCli, EqualsValueSyntax) {
  auto opt = parse_cli({"--mode=M_UNIX", "--request=128K", "--trace-last=512",
                        "--trace=/tmp/out.json"});
  EXPECT_EQ(opt.workload.mode, pfs::IoMode::kUnix);
  EXPECT_EQ(opt.workload.request_size, 128u * 1024);
  EXPECT_EQ(opt.trace_path, "/tmp/out.json");
  EXPECT_EQ(opt.trace_last, 512u);
  // Fault plans carry '=' inside the value: only the flag side splits.
  auto fp = parse_cli({"--faults=crash:io=1,at=0.1,outage=0.15"});
  EXPECT_FALSE(fp.workload.faults.empty());
}

TEST(ParseCli, TraceFlags) {
  auto opt = parse_cli({"--trace", "run.json"});
  EXPECT_EQ(opt.trace_path, "run.json");
  EXPECT_EQ(opt.trace_last, 0u);  // unbounded by default
  EXPECT_THROW(parse_cli({"--trace"}), CliError);
  EXPECT_THROW(parse_cli({"--trace-last", "0"}), CliError);
  EXPECT_THROW(parse_cli({"--trace-last", "many"}), CliError);
}

TEST(ParseCli, MixedWriteWorkloadRefusesFaults) {
  // The mixed workload has no fault plan to arm: --faults is refused
  // instead of printed and then ignored, in either flag order.
  try {
    parse_cli({"--write-workload", "mixed", "--faults", "crash:io=1,at=0.1,outage=0.15"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(e.flag(), "--faults");
  }
  EXPECT_THROW(parse_cli({"--faults", "seed=42", "--write-workload", "mixed"}), CliError);
  EXPECT_NO_THROW(parse_cli({"--write-workload", "checkpoint", "--faults", "seed=42"}));
}

TEST(ParseCli, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).show_help);
  EXPECT_FALSE(cli_usage().empty());
}

// --- AccessTrace ---

TEST(AccessTrace, SerializeParseRoundTrip) {
  AccessTrace t;
  t.mode = pfs::IoMode::kAsync;
  t.ranks = 2;
  t.ops = {
      {0, TraceOp::Kind::kSeek, 0, 65536, 0},
      {0, TraceOp::Kind::kRead, 4096, 0, 0.05},
      {1, TraceOp::Kind::kRead, 8192, 0, 0},
  };
  const auto text = t.serialize();
  const auto back = AccessTrace::parse(text);
  EXPECT_EQ(back.mode, t.mode);
  EXPECT_EQ(back.ranks, t.ranks);
  ASSERT_EQ(back.ops.size(), t.ops.size());
  EXPECT_EQ(back.ops[0].kind, TraceOp::Kind::kSeek);
  EXPECT_EQ(back.ops[0].offset, 65536u);
  EXPECT_EQ(back.ops[1].length, 4096u);
  EXPECT_DOUBLE_EQ(back.ops[1].think, 0.05);
  EXPECT_EQ(back.ops[2].rank, 1);
}

TEST(AccessTrace, ParseRejectsMalformed) {
  EXPECT_THROW(AccessTrace::parse(""), std::invalid_argument);
  EXPECT_THROW(AccessTrace::parse("mode M_RECORD\n"), std::invalid_argument);  // no ranks
  EXPECT_THROW(AccessTrace::parse("mode M_NOPE\nranks 1\n"), std::invalid_argument);
  EXPECT_THROW(AccessTrace::parse("mode M_RECORD\nranks 1\n0 read 0 0\n"),
               std::invalid_argument);  // zero-length read
  EXPECT_THROW(AccessTrace::parse("mode M_RECORD\nranks 1\n5 read 64 0\n"),
               std::invalid_argument);  // rank out of range
  EXPECT_THROW(AccessTrace::parse("mode M_RECORD\nranks 1\n0 frob 1\n"),
               std::invalid_argument);
}

TEST(AccessTrace, ParseIgnoresCommentsAndBlankLines) {
  const auto t = AccessTrace::parse(
      "# a comment\n\nmode M_RECORD\nranks 2\n# another\n0 read 1024 0\n");
  EXPECT_EQ(t.ops.size(), 1u);
}

TEST(AccessTrace, Generators) {
  const auto seq = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 3, 64 * 1024, 0.1);
  EXPECT_EQ(seq.ops.size(), 12u);
  EXPECT_EQ(seq.max_bytes_per_rank(), 3u * 64 * 1024);

  const auto str = AccessTrace::strided(2, 3, 4096, 16384, 0);
  EXPECT_EQ(str.ops.size(), 12u);  // seek+read per access
}

TEST(TraceReplay, SequentialRecordTraceVerifies) {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 4, 64 * 1024, 0.02);
  const auto res = replay_trace(m, trace, /*prefetch_on=*/false, {}, /*verify=*/true);
  EXPECT_EQ(res.reads, 16u);
  EXPECT_EQ(res.total_bytes, 16u * 64 * 1024);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_GT(res.observed_read_bw_mbs, 0.0);
}

TEST(TraceReplay, PrefetchingImprovesTraceWithThinkTime) {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 8, 64 * 1024, 0.05);
  const auto off = replay_trace(m, trace, false);
  const auto on = replay_trace(m, trace, true);
  EXPECT_GT(on.observed_read_bw_mbs, off.observed_read_bw_mbs * 1.5);
  EXPECT_GT(on.prefetch.hits_ready + on.prefetch.hits_in_flight, 0u);
}

TEST(TraceReplay, StridedTraceNeedsStridedPredictor) {
  MachineSpec m;
  m.ncompute = 2;
  m.nio = 4;
  const auto trace = AccessTrace::strided(2, 10, 64 * 1024, 256 * 1024, 0.05);
  prefetch::PrefetchConfig seq_cfg;  // mode-aware: will miss
  const auto misses = replay_trace(m, trace, true, seq_cfg, true);
  prefetch::PrefetchConfig str_cfg;
  str_cfg.predictor = prefetch::PredictorKind::kStrided;
  const auto hits = replay_trace(m, trace, true, str_cfg, true);
  EXPECT_EQ(misses.verify_failures, 0u);
  EXPECT_EQ(hits.verify_failures, 0u);
  EXPECT_GT(hits.prefetch.hits_ready + hits.prefetch.hits_in_flight,
            misses.prefetch.hits_ready + misses.prefetch.hits_in_flight);
}

TEST(TraceReplay, Deterministic) {
  MachineSpec m;
  m.ncompute = 2;
  m.nio = 2;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kAsync, 2, 4, 32 * 1024, 0.01);
  const auto a = replay_trace(m, trace, true);
  const auto b = replay_trace(m, trace, true);
  EXPECT_DOUBLE_EQ(a.wall_elapsed, b.wall_elapsed);
  EXPECT_EQ(a.prefetch.hits_ready, b.prefetch.hits_ready);
}

TEST(TraceReplay, MeshMtuReachesTheMachine) {
  // Bus-bound, so bandwidth is the same either way; only the schedule,
  // hence the digest, shows whether 512 KB messages were segmented.
  const MachineSpec circuit;
  MachineSpec segmented;
  segmented.mesh_mtu = 4 * 1024;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 8, 16, 512 * 1024, 0);
  const auto a = replay_trace(circuit, trace, false);
  const auto b = replay_trace(circuit, trace, false);
  const auto c = replay_trace(segmented, trace, false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_NE(a.events_dispatched, c.events_dispatched);
}

TEST(TraceReplay, SumsEveryPrefetchField) {
  const MachineSpec m;
  const auto trace = AccessTrace::strided(8, 32, 64 * 1024, 256 * 1024, 0.02);
  prefetch::PrefetchConfig cfg;
  cfg.adaptive_depth = true;
  cfg.predictor = prefetch::PredictorKind::kEnsemble;
  const auto res = replay_trace(m, trace, true, cfg, /*verify=*/true);
  EXPECT_EQ(res.verify_failures, 0u);
  // Fault-free: every read lands in one depth-histogram bucket.
  std::uint64_t decided = 0;
  for (const std::uint64_t n : res.prefetch.depth_hist) decided += n;
  EXPECT_EQ(res.reads, 256u);
  EXPECT_EQ(decided, res.reads);
  // AdaptaFetch's own counters reach the replay result too.
  EXPECT_EQ(res.prefetch.depth_ramp_ups, 24u);
  EXPECT_EQ(res.prefetch.wasted_bytes, 3670016u);
}

TEST(TraceReplay, RejectsBadInputs) {
  MachineSpec m;
  m.ncompute = 2;
  AccessTrace empty;
  empty.ranks = 1;
  EXPECT_THROW(replay_trace(m, empty, false), std::invalid_argument);
  auto too_wide = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 1, 1024, 0);
  EXPECT_THROW(replay_trace(m, too_wide, false), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::workload
