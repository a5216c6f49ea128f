// SweepRunner: the parallel experiment driver's determinism contract.
//
// The load-bearing property is that fanning scenarios across worker
// threads changes nothing observable: same outcomes, same submission
// order, and — the kernel's determinism digest being the strictest
// witness — bit-identical digests against a serial run. Two golden
// digests pin the absolute event stream across kernel refactors.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/sweep.hpp"

namespace {

using ppfs::exp::SweepJob;
using ppfs::exp::SweepReport;
using ppfs::exp::SweepRunner;
using ppfs::exp::paper_table_jobs;
using ppfs::exp::run_sweep;
using ppfs::workload::MachineSpec;
using ppfs::workload::WorkloadSpec;

// A quick six-scenario grid (1MB files): two modes x {no-prefetch,
// prefetch, prefetch+delay}.
std::vector<SweepJob> small_grid() {
  std::vector<SweepJob> jobs;
  for (const auto mode : {ppfs::pfs::IoMode::kRecord, ppfs::pfs::IoMode::kUnix}) {
    for (int variant = 0; variant < 3; ++variant) {
      SweepJob job;
      job.work.mode = mode;
      job.work.file_size = 1024 * 1024;
      job.work.prefetch = variant > 0;
      job.work.compute_delay = variant == 2 ? 0.005 : 0.0;
      job.label = std::string(ppfs::pfs::to_string(mode)) + "/" + std::to_string(variant);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(SweepRunner, ParallelMatchesSerialBitForBit) {
  const auto jobs = small_grid();
  const SweepReport serial = run_sweep(jobs, 1);
  const SweepReport parallel = run_sweep(jobs, 4);

  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  ASSERT_EQ(serial.outcomes.size(), jobs.size());
  ASSERT_EQ(parallel.outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& s = serial.outcomes[i];
    const auto& p = parallel.outcomes[i];
    EXPECT_EQ(s.label, jobs[i].label);
    EXPECT_EQ(p.label, jobs[i].label);
    // The digest covers every dispatched (time, kind, seq) tuple — if the
    // thread pool perturbed a single event anywhere, this diverges.
    EXPECT_EQ(s.result.digest, p.result.digest) << jobs[i].label;
    EXPECT_EQ(s.result.events_dispatched, p.result.events_dispatched) << jobs[i].label;
    EXPECT_EQ(s.result.total_bytes, p.result.total_bytes) << jobs[i].label;
    EXPECT_EQ(s.result.reads, p.result.reads) << jobs[i].label;
    EXPECT_EQ(s.result.wall_elapsed, p.result.wall_elapsed) << jobs[i].label;
  }
}

TEST(SweepRunner, MoreWorkersThanJobsIsFine) {
  auto jobs = small_grid();
  jobs.resize(2);
  const SweepReport report = run_sweep(jobs, 16);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.jobs, 16);
}

TEST(SweepRunner, WorkerCountClampsToOne) {
  EXPECT_EQ(SweepRunner(0).jobs(), 1);
  EXPECT_EQ(SweepRunner(-3).jobs(), 1);
}

TEST(SweepRunner, CapturesJobErrorsWithoutAbortingTheSweep) {
  auto jobs = small_grid();
  jobs.resize(3);
  jobs[1].work.request_size = 0;  // Experiment throws invalid_argument
  const SweepReport report = run_sweep(jobs, 2);
  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.outcomes[0].ok());
  EXPECT_FALSE(report.outcomes[1].ok());
  EXPECT_NE(report.outcomes[1].error.find("request size"), std::string::npos);
  EXPECT_TRUE(report.outcomes[2].ok());
}

// Golden digests: the exact event streams of two paper scenarios, pinned
// across kernel refactors (recorded from ppfs_run --selfcheck). If a queue
// or scheduling change reorders a single event, these change.
TEST(SweepRunner, GoldenDigestRecordMode) {
  SweepJob job;
  job.label = "M_RECORD 1M/64K";
  job.work.file_size = 1024 * 1024;
  const auto report = run_sweep({job}, 1);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.outcomes[0].result.digest, 0x0c1e17e218fb1117ull);
  EXPECT_EQ(report.outcomes[0].result.events_dispatched, 391u);
}

TEST(SweepRunner, GoldenDigestUnixPrefetch) {
  SweepJob job;
  job.label = "M_UNIX prefetch 1M/64K delay 5ms";
  job.work.mode = ppfs::pfs::IoMode::kUnix;
  job.work.file_size = 1024 * 1024;
  job.work.prefetch = true;
  job.work.compute_delay = 0.005;
  const auto report = run_sweep({job}, 1);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.outcomes[0].result.digest, 0x6355a48ff39b604dull);
  EXPECT_EQ(report.outcomes[0].result.events_dispatched, 825u);
}

TEST(SweepRunner, PaperTableJobsShape) {
  const MachineSpec machine;
  const WorkloadSpec base;
  const auto jobs = paper_table_jobs(machine, base);
  ASSERT_EQ(jobs.size(), 10u);  // 5 request sizes x prefetch off/on
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].work.prefetch, i % 2 == 1);
    EXPECT_GE(jobs[i].work.file_size, 4u * 1024 * 1024);
    EXPECT_FALSE(jobs[i].label.empty());
  }
  EXPECT_EQ(jobs[0].work.request_size, 64u * 1024);
  EXPECT_EQ(jobs[9].work.request_size, 1024u * 1024);
}

}  // namespace
