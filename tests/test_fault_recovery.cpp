// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Fault injection and recovery across the stack: RAID degraded-mode reads,
// the client RPC reliability envelope (retry/backoff/recovery-wait), fault
// plan determinism, and the SimCheck fault-conservation ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "sim/check/audit.hpp"
#include "sim/event.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "workload/experiment.hpp"
#include "workload/write_workload.hpp"

namespace ppfs {
namespace {

using workload::Experiment;
using workload::ExperimentResult;
using workload::MachineSpec;
using workload::WorkloadSpec;

WorkloadSpec small_verified_workload(sim::ByteCount file_size = 2 * 1024 * 1024) {
  WorkloadSpec w;
  w.file_size = file_size;
  w.request_size = 64 * 1024;
  w.verify = true;
  return w;
}

// --- RAID degraded mode -----------------------------------------------------

TEST(FaultRecovery, DegradedRaidReadsAreByteIdenticalToHealthy) {
  // One failed data disk in EVERY array; parity reconstruction must keep
  // each read byte-correct with zero application-visible errors.
  Experiment exp;
  auto w = small_verified_workload();
  w.faults = fault::parse_plan("diskfail:io=all,member=1,at=0");
  const ExperimentResult degraded = exp.run(w);

  EXPECT_EQ(degraded.verify_failures, 0u);
  EXPECT_EQ(degraded.faults.app_errors, 0u);
  EXPECT_GT(degraded.faults.reconstructed_reads, 0u);

  auto healthy_spec = w;
  healthy_spec.faults = fault::FaultPlan{};
  const ExperimentResult healthy = exp.run(healthy_spec);
  EXPECT_EQ(degraded.total_bytes, healthy.total_bytes);
  EXPECT_EQ(degraded.reads, healthy.reads);
  // Reconstruction costs time: the degraded run cannot be faster.
  EXPECT_GE(degraded.wall_elapsed, healthy.wall_elapsed);
}

TEST(FaultRecovery, DegradedRunDigestIsStableAcrossRuns) {
  Experiment exp;
  auto w = small_verified_workload();
  w.faults = fault::parse_plan("diskfail:io=all,member=0,at=0");
  const ExperimentResult a = exp.run(w);
  const ExperimentResult b = exp.run(w);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(FaultRecovery, DoubleDiskFailureIsTerminalNotHang) {
  // Two lost data members defeat single-parity reconstruction: reads of
  // that array must surface typed errors (bounded by the retry budget)
  // while the run itself completes.
  MachineSpec spec;
  spec.pfs.retry.total_budget_s = 0.1;
  Experiment exp(spec);
  auto w = small_verified_workload();
  w.faults = fault::parse_plan("diskfail:io=1,member=0,at=0;diskfail:io=1,member=2,at=0");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.faults.app_errors, 0u);
  EXPECT_GT(r.faults.terminal_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);  // failed reads are not verified
  EXPECT_LT(r.total_bytes, w.file_size);
}

// --- transient disk errors --------------------------------------------------

TEST(FaultRecovery, TransientDiskErrorsAreRetriedToSuccess) {
  Experiment exp;
  auto w = small_verified_workload();
  w.faults = fault::parse_plan("transient:io=all,from=0,until=1.0,max=2");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.faults.disk_transients, 0u);
  EXPECT_GT(r.faults.rpc_retries, 0u);
  EXPECT_GT(r.faults.backoff_time, 0.0);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, w.file_size);
}

// --- I/O node crash/restart -------------------------------------------------

TEST(FaultRecovery, CrashOutageWithinBudgetIsAbsorbed) {
  Experiment exp;
  auto w = small_verified_workload(4 * 1024 * 1024);
  w.compute_delay = 0.002;
  w.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.08");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.faults.rpc_down_waits, 0u);
  EXPECT_GT(r.faults.recovery_wait_time, 0.0);
  EXPECT_EQ(r.faults.rpc_timeouts, 0u);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, w.file_size);
}

TEST(FaultRecovery, CrashOutagePastDeadlineGivesTypedErrorNotHang) {
  MachineSpec spec;
  spec.pfs.retry.total_budget_s = 0.05;
  Experiment exp(spec);
  auto w = small_verified_workload();
  w.faults = fault::parse_plan("crash:io=1,at=0,outage=0.5");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.faults.rpc_timeouts, 0u);
  EXPECT_GT(r.faults.terminal_errors, 0u);
  EXPECT_GT(r.faults.app_errors, 0u);
  EXPECT_LT(r.total_bytes, w.file_size);
  // The unaffected I/O nodes' data still verifies clean.
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(FaultRecovery, CrashDuringPrefetchShedsBuffersAndRecovers) {
  Experiment exp;
  auto w = small_verified_workload(4 * 1024 * 1024);
  w.prefetch = true;
  w.prefetch_cfg.depth = 2;   // keeps a buffer resident at fault time
  w.compute_delay = 0.01;     // steady-state prefetching before the crash
  w.faults = fault::parse_plan("crash:io=1,at=0.1,outage=0.08");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.prefetch.fault_pauses, 0u);
  EXPECT_GT(r.prefetch.fault_skips, 0u);
  EXPECT_GT(r.prefetch.shed, 0u);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, w.file_size);
}

TEST(FaultRecovery, CrashEpochInvalidatesInFlightPrefetchBuffers) {
  // A crash bumps the mount's topology epoch; prefetch replies stamped in
  // the dead epoch must be refused at serve time (and re-read from a live
  // epoch) rather than served as stale bytes.
  Experiment exp;
  auto w = small_verified_workload(4 * 1024 * 1024);
  w.prefetch = true;
  w.prefetch_cfg.depth = 2;
  w.compute_delay = 0.01;
  w.faults = fault::parse_plan("crash:io=1,at=0.1,outage=0.08");
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.prefetch.epoch_discarded, 0u);
  EXPECT_EQ(r.faults.stale_epoch_discards, r.prefetch.epoch_discarded);
  // Every discarded buffer was replaced by a live-epoch read: bytes intact.
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, w.file_size);
  // The discard count is part of the deterministic schedule.
  const ExperimentResult r2 = exp.run(w);
  EXPECT_EQ(r2.prefetch.epoch_discarded, r.prefetch.epoch_discarded);
  EXPECT_EQ(r2.digest, r.digest);
}

// --- chaos mode -------------------------------------------------------------

TEST(FaultRecovery, ChaosPlanIsDeterministicAndSurvivable) {
  Experiment exp;
  auto w = small_verified_workload(4 * 1024 * 1024);
  w.compute_delay = 0.002;
  w.faults = fault::parse_plan("seed=42,events=6,horizon=0.3");
  const ExperimentResult a = exp.run(w);
  const ExperimentResult b = exp.run(w);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_GT(a.faults.injected_events, 0u);
  EXPECT_EQ(a.faults.app_errors, 0u);  // chaos faults are survivable by construction
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(a.total_bytes, w.file_size);
}

// --- TokenWrite under faults ------------------------------------------------

workload::WriteWorkloadSpec token_crash_spec() {
  workload::WriteWorkloadSpec spec;
  spec.kind = workload::WriteWorkloadKind::kCheckpoint;
  spec.writers = 4;
  spec.rounds = 6;
  spec.compute_delay = 0.002;  // stretch the run across the outage window
  return spec;
}

TEST(FaultRecovery, ServerCrashWithOutstandingWriteTokensRecovers) {
  // An I/O node crashes while every writer holds a write token over dirty
  // buffered data. Token state lives with the metadata service and
  // survives; the flushes that hit the downed server must ride the retry
  // envelope and land after the outage — bytes intact, nothing torn.
  auto spec = token_crash_spec();
  spec.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
  const ExperimentResult r = workload::run_write_workload(spec);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.faults.terminal_errors, 0u);
  EXPECT_EQ(r.writes, 24u);  // every record landed despite the outage
  EXPECT_GT(r.faults.injected_events, 0u);
}

TEST(FaultRecovery, TokenCrashReplayIsDeterministicAcrossRuns) {
  auto spec = token_crash_spec();
  spec.conflicting = true;  // revocation flushes race the outage window
  spec.faults = fault::parse_plan("crash:io=0,at=0.01,outage=0.04");
  const ExperimentResult a = workload::run_write_workload(spec);
  const ExperimentResult b = workload::run_write_workload(spec);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(a.token_revocations, b.token_revocations);
  EXPECT_EQ(a.wb_flush_ops, b.wb_flush_ops);
}

TEST(FaultRecovery, TokenWriteChaosSeedsReplayDeterministically) {
  // Chaos plans draw crash/transient events from a seeded stream. For each
  // seed the write workload must produce an identical digest twice over,
  // verify byte-exact, and absorb every injected fault.
  for (const char* plan : {"seed=7,events=4,horizon=0.2", "seed=42,events=4,horizon=0.2",
                           "seed=1301,events=4,horizon=0.2"}) {
    auto spec = token_crash_spec();
    spec.faults = fault::parse_plan(plan);
    const ExperimentResult a = workload::run_write_workload(spec);
    const ExperimentResult b = workload::run_write_workload(spec);
    EXPECT_EQ(a.digest, b.digest) << plan;
    EXPECT_EQ(a.events_dispatched, b.events_dispatched) << plan;
    EXPECT_EQ(a.verify_failures, 0u) << plan;
    EXPECT_EQ(a.faults.app_errors, 0u) << plan;
    EXPECT_GT(a.faults.injected_events, 0u) << plan;
  }
}

// --- plan parsing -----------------------------------------------------------

TEST(FaultPlanParse, RejectsMalformedPlans) {
  EXPECT_THROW(fault::parse_plan(""), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("explode:io=0"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("crash:outage=0.1"), std::invalid_argument);  // io missing
  EXPECT_THROW(fault::parse_plan("crash:io=0,outage=0.1,bogus=1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("seed=0"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("diskfail:io=0,member=all"), std::invalid_argument);
}

TEST(FaultPlanParse, ParsesEventsAndChaos) {
  const auto plan =
      fault::parse_plan("crash:io=2,at=0.1,outage=0.2;transient:io=all,until=0.5;seed=7");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[0].io_index, 2);
  EXPECT_DOUBLE_EQ(plan.events[0].outage, 0.2);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kDiskTransient);
  EXPECT_EQ(plan.events[1].io_index, -1);
  EXPECT_EQ(plan.chaos_seed, 7u);
  EXPECT_FALSE(plan.summary().empty());
}

// --- retry policy -----------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialCappedAndJitterBounded) {
  fault::RetryPolicy p;
  sim::Rng rng(123);
  double expected_step = p.base_backoff_s;
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    const double step = std::min(expected_step, static_cast<double>(p.max_backoff_s));
    const double d = fault::backoff_delay(p, attempt, rng);
    EXPECT_GE(d, step * (1.0 - p.jitter) - 1e-12) << "attempt " << attempt;
    EXPECT_LE(d, step * (1.0 + p.jitter) + 1e-12) << "attempt " << attempt;
    expected_step *= p.multiplier;
  }
}

// Regression: the jitter used to be applied AFTER the min() against
// max_backoff_s, so any saturated attempt with a positive jitter draw
// returned up to (1 + jitter) * max_backoff_s — the documented cap was
// quietly exceeded on roughly half of all deep retries. The final value
// must land in [0, max_backoff_s] for every attempt and every draw.
TEST(RetryPolicy, JitteredBackoffNeverExceedsTheCap) {
  fault::RetryPolicy p;
  sim::Rng rng(2026);
  bool saturated_draw_seen = false;
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    for (int draw = 0; draw < 256; ++draw) {
      const double d = fault::backoff_delay(p, attempt, rng);
      EXPECT_GE(d, 0.0) << "attempt " << attempt;
      EXPECT_LE(d, static_cast<double>(p.max_backoff_s)) << "attempt " << attempt;
      saturated_draw_seen |= d == static_cast<double>(p.max_backoff_s);
    }
  }
  // With attempt 40 the raw step saturates long before the cap, so clamped
  // draws must actually occur — proves the test exercises the fixed branch.
  EXPECT_TRUE(saturated_draw_seen);

  // An extreme policy (jitter >= 1 can push the factor negative) still
  // stays inside the envelope.
  fault::RetryPolicy wild = p;
  wild.jitter = 1.5;
  for (int draw = 0; draw < 256; ++draw) {
    const double d = fault::backoff_delay(wild, 40, rng);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, static_cast<double>(wild.max_backoff_s));
  }
}

TEST(RetryPolicy, BackoffIsDeterministicPerSeed) {
  fault::RetryPolicy p;
  sim::Rng a(9), b(9), c(10);
  bool diverged = false;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const double da = fault::backoff_delay(p, i, a);
    EXPECT_DOUBLE_EQ(da, fault::backoff_delay(p, i, b));
    if (std::abs(da - fault::backoff_delay(p, i, c)) > 1e-15) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds should jitter differently";
}

// --- timeout machinery ------------------------------------------------------

TEST(FaultRecovery, WaitWithTimeoutTimeoutPathLeavesNoLiveProcess) {
  sim::Simulation sim;
  sim::Event never(sim);
  bool timed_out = false;
  test::run_task(sim, [](sim::Simulation& s, sim::Event& ev, bool& flag) -> sim::Task<void> {
    const bool fired = co_await sim::wait_with_timeout(s, ev, 0.25);
    flag = !fired;
  }(sim, never, timed_out));
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.25);
}

// --- fault-conservation ledger ----------------------------------------------

TEST(FaultLedger, UnresolvedFaultIsReported) {
  sim::Simulation sim;
  auto* a = sim.auditor();
  if (!a) GTEST_SKIP() << "SimCheck compiled out";
  a->set_fail_fast(false);
  a->on_fault_observed();
  a->check_fault_conservation(sim.now());
  EXPECT_EQ(a->count(sim::check::Violation::kFaultConservation), 1u);
}

TEST(FaultLedger, OverResolutionIsReported) {
  sim::Simulation sim;
  auto* a = sim.auditor();
  if (!a) GTEST_SKIP() << "SimCheck compiled out";
  a->set_fail_fast(false);
  a->on_fault_retried_ok();  // resolution with no observed fault
  EXPECT_GE(a->count(sim::check::Violation::kFaultConservation), 1u);
}

TEST(FaultLedger, BalancedLedgerIsClean) {
  sim::Simulation sim;
  auto* a = sim.auditor();
  if (!a) GTEST_SKIP() << "SimCheck compiled out";
  a->set_fail_fast(false);
  a->on_fault_observed(3);
  a->on_fault_retried_ok(1);
  a->on_fault_reconstructed(1);
  a->on_fault_terminal(1);
  a->check_fault_conservation(sim.now());
  EXPECT_EQ(a->count(sim::check::Violation::kFaultConservation), 0u);
}

}  // namespace
}  // namespace ppfs
