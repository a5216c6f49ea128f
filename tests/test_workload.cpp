// Tests for the experiment driver and report utilities — these validate
// the harness the paper-table benches are built on.
#include <gtest/gtest.h>

#include <limits>

#include "workload/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/report.hpp"

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
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kAsync);
  w.separate_files = true;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
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
  // units on all eight I/O nodes, one-block-ahead prefetch. Every read
  // extent is one stripe unit, so each lands straight in its destination
  // buffer and no byte of the read phase passes through a staging image.
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
  EXPECT_EQ(res.staged_bytes, 0u);
}

TEST(Experiment, TooSmallFileThrows) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  w.file_size = w.request_size;  // less than one request per node
  EXPECT_THROW(e.run(w), std::invalid_argument);
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

}  // namespace
}  // namespace ppfs::workload
