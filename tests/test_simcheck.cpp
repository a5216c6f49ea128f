// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Tests for SimCheck — the kernel invariant auditor, its per-frame ledger
// in the FrameArena block header, the determinism digest, and
// pending-process teardown.
//
// Each of the auditor's violation classes gets (a) a real-path test that
// commits the violation through the public kernel surface and (b) a seeded
// injection test proving the auditor catches the class when the trigger
// point is chosen by arm_injection(kind, seed).
#include <gtest/gtest.h>

#include <coroutine>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/tier.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "sim/check/audit.hpp"
#include "sim/event.hpp"
#include "sim/frame_arena.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"
#include "workload/experiment.hpp"
#include "workload/write_workload.hpp"

namespace ppfs::sim {
namespace {

using check::AuditError;
using check::Violation;
using ppfs::test::run_task;

#if !defined(PPFS_SIMCHECK)
#error "test_simcheck requires a PPFS_SIMCHECK build (the default)"
#endif

Task<void> tick_forever(Simulation& sim, Event& ev) {
  co_await sim.delay(1.0);
  co_await ev.wait();  // never set: process blocks forever
}

Task<void> noop_task() { co_return; }

Task<void> suspend_forever() {
  for (;;) co_await std::suspend_always{};
}

// An arena frame a test may schedule by hand, any number of times: every
// resume runs the loop to its next suspension. In a SimCheck build only
// arena frames may be scheduled — the auditor keeps its per-frame ledger in
// the FrameArena block header in front of the frame. The destructor does
// what ~Task does.
class ArenaFrame {
 public:
  ArenaFrame() : h_(suspend_forever().release()) {}
  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;
  ~ArenaFrame() {
    check::note_frame_destroyed(h_.address());
    h_.destroy();
  }
  std::coroutine_handle<> handle() const noexcept { return h_; }

 private:
  std::coroutine_handle<> h_;
};

// --- causality --------------------------------------------------------------

TEST(SimCheckCausality, SchedulingInThePastThrows) {
  Simulation sim;
  ASSERT_NE(sim.auditor(), nullptr);
  sim.call_at(5.0, [] {});
  sim.run();
  ASSERT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_THROW(sim.call_at(1.0, [] {}), AuditError);
  EXPECT_EQ(sim.auditor()->count(Violation::kCausality), 1u);
}

TEST(SimCheckCausality, RecordOnlyModeCollects) {
  Simulation sim;
  sim.auditor()->set_fail_fast(false);
  sim.call_at(3.0, [] {});
  sim.run();
  sim.call_at(2.0, [] {});  // in the past; clamped, but recorded
  sim.run();
  ASSERT_EQ(sim.auditor()->count(Violation::kCausality), 1u);
  EXPECT_EQ(sim.auditor()->violations()[0].kind, Violation::kCausality);
}

// --- double resume ----------------------------------------------------------

TEST(SimCheckDoubleResume, SameFrameQueuedTwiceThrows) {
  ArenaFrame frame;
  Simulation sim;
  sim.schedule_at(1.0, frame.handle());
  EXPECT_THROW(sim.schedule_at(1.0, frame.handle()), AuditError);
  EXPECT_EQ(sim.auditor()->count(Violation::kDoubleResume), 1u);
}

TEST(SimCheckDoubleResume, AbortedScheduleIsNotCountedAsPending) {
  ArenaFrame frame;
  Simulation sim;
  sim.call_at(5.0, [] {});
  sim.run();
  // Causality throws out of schedule_at before the kernel queues the event,
  // so the frame must not be left counted as pending...
  EXPECT_THROW(sim.schedule_at(1.0, frame.handle()), AuditError);
  EXPECT_EQ(sim.pending_events(), 0u);
  // ...or this legitimate schedule would be reported as a double resume.
  EXPECT_NO_THROW(sim.schedule_at(6.0, frame.handle()));
  // A refused double resume is not counted either: after the one queued
  // event dispatches, the frame is free to be scheduled again.
  EXPECT_THROW(sim.schedule_at(6.0, frame.handle()), AuditError);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_NO_THROW(sim.schedule_at(7.0, frame.handle()));
  sim.run();
  EXPECT_EQ(sim.auditor()->count(Violation::kCausality), 1u);
  EXPECT_EQ(sim.auditor()->count(Violation::kDoubleResume), 1u);
}

TEST(SimCheckDoubleResume, FrameLeftQueuedInATornDownSimulationSchedulesAgain) {
  // The queued count lives in the frame's header, not in a Simulation.
  // Teardown drops the entries it discards from that count, so the next
  // Simulation sees the frame as not queued.
  ArenaFrame frame;
  {
    Simulation first;
    first.schedule_at(1.0, frame.handle());
    ASSERT_EQ(first.pending_events(), 1u);
  }  // torn down with the frame still queued
  Simulation second;
  EXPECT_NO_THROW(second.schedule_at(1.0, frame.handle()));
  second.run();
  EXPECT_EQ(second.auditor()->count(Violation::kDoubleResume), 0u);
  EXPECT_EQ(second.auditor()->count(Violation::kResumeAfterDestroy), 0u);
}

// --- resume after destroy ---------------------------------------------------

TEST(SimCheckLifetime, ResumeAfterDestroyIsSuppressed) {
  Simulation sim;
  sim.auditor()->set_fail_fast(false);
  {
    Task<void> t = noop_task();
    // Schedule the frame, then destroy it through its owner — the classic
    // dangling-handle bug. ~Task reports the frame to the registry.
    auto h = t.release();
    sim.schedule_at(1.0, h);
    check::note_frame_destroyed(h.address());
    h.destroy();
  }
  sim.run();  // must not resume the dead frame
  EXPECT_EQ(sim.auditor()->count(Violation::kResumeAfterDestroy), 1u);
}

TEST(SimCheckLifetime, DanglingWaiterHandleIsSuppressed) {
  // The frame dies while parked in an Event's waiter list, not while
  // queued: its handle reaches the event queue only later, through set().
  // The registry is keyed by address, so dispatch still refuses it.
  Simulation sim;
  sim.auditor()->set_fail_fast(false);
  Event ev(sim);
  bool resumed = false;
  {
    Task<void> t = [](Event& e, bool& flag) -> Task<void> {
      co_await e.wait();
      flag = true;
    }(ev, resumed);
    t.await_suspend(std::noop_coroutine()).resume();  // runs up to the wait
    ASSERT_EQ(ev.waiter_count(), 1u);
  }  // ~Task destroys the parked frame; its handle stays in the waiter list
  ev.set();
  sim.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sim.auditor()->count(Violation::kResumeAfterDestroy), 1u);
}

TEST(SimCheckLifetime, DanglingHandleIsCaughtPastTheOldFreeListCap) {
  // The arena used to cache 1,024 blocks per size class and hand the rest
  // back to the heap, where a dead frame's header would be freed memory.
  // Now every block stays in the arena until thread exit, so a frame that
  // dies after more than 1,024 others of its class were freed is still
  // caught, and reading its header is no use-after-free (ASan would say).
  Simulation sim;
  sim.auditor()->set_fail_fast(false);
  Event ev(sim);
  const auto parked = [](Event& e) -> Task<void> { co_await e.wait(); };
  std::vector<Task<void>> others;
  for (int i = 0; i < 1100; ++i) others.push_back(parked(ev));
  const std::uint64_t trims_before = FrameArena::local().stats().trims;
  {
    Task<void> victim = parked(ev);
    victim.await_suspend(std::noop_coroutine()).resume();  // runs up to the wait
    ASSERT_EQ(ev.waiter_count(), 1u);
    others.clear();  // 1,100 frames of the victim's class freed first
  }  // ~Task destroys the parked frame; its handle stays in the waiter list
  EXPECT_EQ(FrameArena::local().stats().trims, trims_before);
  ev.set();
  sim.run();
  EXPECT_EQ(sim.auditor()->count(Violation::kResumeAfterDestroy), 1u);
}

TEST(SimCheckLifetime, RegistryClearsStainOnReuse) {
  // A real reuse: a Task of the same size class takes the dead frame's
  // block (the free list is LIFO), and its constructor clears the stain.
  void* addr = nullptr;
  {
    ArenaFrame dead;
    addr = dead.handle().address();
    EXPECT_FALSE(check::frame_destroyed(addr));
  }  // destroyed the way ~Task destroys a frame
  EXPECT_TRUE(check::frame_destroyed(addr));
  ArenaFrame reused;
  ASSERT_EQ(reused.handle().address(), addr);
  EXPECT_FALSE(check::frame_destroyed(addr));
}

// --- resource accounting ----------------------------------------------------

TEST(SimCheckResource, ReleaseWithoutAcquireThrows) {
  Simulation sim;
  Resource res(sim, 2);
  EXPECT_THROW(res.release(1), AuditError);
  EXPECT_EQ(sim.auditor()->count(Violation::kResourceAccounting), 1u);
}

TEST(SimCheckResource, BalancedUseIsClean) {
  Simulation sim;
  Resource res(sim, 2);
  run_task(sim, [](Simulation& s, Resource& r) -> Task<void> {
    auto g1 = co_await r.acquire(1);
    auto g2 = co_await r.acquire(1);
    co_await s.delay(0.5);
    g1.release();
    g2.release();
    auto g3 = co_await r.acquire(2);  // whole capacity, released at scope exit
  }(sim, res));
  EXPECT_EQ(sim.auditor()->count(Violation::kResourceAccounting), 0u);
  EXPECT_EQ(sim.auditor()->resource_outstanding(&res), 0);
}

TEST(SimCheckResource, LeakAtDestructionRecorded) {
  Simulation sim;
  auto res = std::make_unique<Resource>(sim, 2);
  {
    auto awaiter = res->acquire(1);
    ASSERT_TRUE(awaiter.await_ready());  // capacity free: acquires inline
    // Guard never constructed — the unit is now leaked deliberately.
  }
  EXPECT_EQ(sim.auditor()->resource_outstanding(res.get()), 1);
  res.reset();  // destructor context: records, must not throw
  ASSERT_EQ(sim.auditor()->count(Violation::kResourceAccounting), 1u);
  EXPECT_NE(sim.auditor()->violations()[0].detail.find("still acquired"), std::string::npos);
}

// --- buffer conservation ----------------------------------------------------

TEST(SimCheckBuffers, UnbalancedLedgerDetected) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  const void* owner = &sim;
  a->on_buffer_allocated(owner, 3);
  a->on_buffer_consumed(owner, 1);
  a->on_buffer_discarded(owner, 1);
  a->check_buffer_conservation(sim.now(), owner);  // one buffer unaccounted
  EXPECT_EQ(a->count(Violation::kBufferConservation), 1u);
}

TEST(SimCheckBuffers, OverDisposalDetectedImmediately) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  const void* owner = &sim;
  a->on_buffer_allocated(owner, 1);
  a->on_buffer_consumed(owner, 1);
  a->on_buffer_freed_at_close(owner, 1);  // second terminal state: bug
  EXPECT_EQ(a->count(Violation::kBufferConservation), 1u);
}

TEST(SimCheckBuffers, RealPrefetchRunConserves) {
  Simulation sim;
  hw::Machine machine(sim, hw::MachineConfig::paragon(1, 4));
  pfs::PfsFileSystem fs(machine, pfs::PfsParams{});
  pfs::PfsClient client(fs, 0, 0, 1);
  prefetch::PrefetchConfig cfg;
  cfg.depth = 2;
  auto engine = prefetch::attach_prefetcher(client, cfg);

  const ByteCount total = 256 * 1024;
  fs.create("f", fs.default_attrs());
  run_task(sim, [](Simulation&, pfs::PfsClient& c, ByteCount sz) -> Task<void> {
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    auto data = ppfs::test::make_pattern(1, 0, sz);
    co_await c.write(fd, data);
    c.close(fd);
  }(sim, client, total));

  run_task(sim, [](Simulation&, pfs::PfsClient& c, ByteCount sz) -> Task<void> {
    const int fd = co_await c.open("f", pfs::IoMode::kAsync);
    std::vector<std::byte> buf(16 * 1024);
    for (ByteCount off = 0; off < sz; off += buf.size()) {
      co_await c.read(fd, buf);
    }
    c.close(fd);  // drains every remaining buffer; conservation checked here
  }(sim, client, total));

  EXPECT_GT(engine->stats().issued, 0u);
  engine.reset();  // destructor re-checks the ledger
  EXPECT_EQ(sim.auditor()->count(Violation::kBufferConservation), 0u);
}

// --- cache bitmap conservation ----------------------------------------------

TEST(SimCheckCacheBits, UnbalancedLedgerDetected) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  const void* owner = &sim;
  a->on_cache_bit_set(owner, 4);
  a->on_cache_bit_cleared(owner, 1);
  // Tier claims 2 resident, but the ledger says 4 - 1 = 3.
  a->check_cache_bitmap_conservation(sim.now(), owner, /*resident=*/2);
  EXPECT_EQ(a->count(Violation::kCacheBitmapConservation), 1u);
}

TEST(SimCheckCacheBits, OverClearDetectedImmediately) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  const void* owner = &sim;
  a->on_cache_bit_set(owner, 1);
  a->on_cache_bit_cleared(owner, 1);
  a->on_cache_bit_cleared(owner, 1);  // clears a bit that was never set
  EXPECT_EQ(a->count(Violation::kCacheBitmapConservation), 1u);
}

TEST(SimCheckCacheBits, TierLifecycleConserves) {
  // Insert / evict / crash / recover through the real tier: the ledger must
  // balance at every checkpoint and at destruction.
  Simulation sim;
  std::map<std::uint32_t, std::uint64_t> gens{{1, 1}};
  std::map<std::uint32_t, std::uint64_t> blocks{{1, 64}};
  {
    cache::CacheTierParams p;
    p.enabled = true;
    p.journal_flush_interval = 1;
    p.capacity_blocks = 8;
    cache::CacheTier tier(sim, "audited-tier", p,
                          [&](std::uint32_t ino) { return gens.count(ino) ? gens[ino] : 0; },
                          [&](std::uint32_t ino) { return blocks.count(ino) ? blocks[ino] : 0; });
    for (std::uint64_t b = 0; b < 12; ++b) {  // overflows capacity: evictions
      tier.insert(1, 1, b);
      sim.run();
    }
    EXPECT_GT(tier.stats().evictions, 0u);
    sim.auditor()->check_cache_bitmap_conservation(sim.now(), &tier, tier.resident_blocks());
    tier.on_crash();
    run_task(sim, tier.recover());
    sim.auditor()->check_cache_bitmap_conservation(sim.now(), &tier, tier.resident_blocks());
  }  // ~CacheTier runs the in_destructor check
  EXPECT_EQ(sim.auditor()->count(Violation::kCacheBitmapConservation), 0u);
}

// --- write-token conservation -----------------------------------------------

TEST(SimCheckTokens, OverlappingWriteGrantsDetected) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  a->on_token_write_grant(sim.now(), /*file=*/1, /*owner=*/1, 0, 4096);
  a->on_token_write_grant(sim.now(), /*file=*/1, /*owner=*/2, 1024, 2048);
  EXPECT_EQ(a->count(Violation::kTokenConservation), 1u);
}

TEST(SimCheckTokens, DisjointAndCrossFileGrantsAreClean) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  a->on_token_write_grant(sim.now(), 1, 1, 0, 4096);
  a->on_token_write_grant(sim.now(), 1, 2, 4096, 8192);  // adjacent, no overlap
  a->on_token_write_grant(sim.now(), 2, 2, 0, 4096);     // other file
  a->check_token_conservation(sim.now(), /*outstanding=*/12288);
  EXPECT_EQ(a->count(Violation::kTokenConservation), 0u);
}

TEST(SimCheckTokens, PartialReleaseSplitsLedgerRecord) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  a->on_token_write_grant(sim.now(), 1, 1, 0, 4096);
  a->on_token_write_release(sim.now(), 1, 1, 1024, 2048);  // middle slice revoked
  a->check_token_conservation(sim.now(), /*outstanding=*/3072);
  // The freed middle may now go to another client without complaint.
  a->on_token_write_grant(sim.now(), 1, 2, 1024, 2048);
  a->check_token_conservation(sim.now(), /*outstanding=*/4096);
  EXPECT_EQ(a->count(Violation::kTokenConservation), 0u);
}

TEST(SimCheckTokens, ReleaseOfUngrantedRangeDetected) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  a->on_token_write_grant(sim.now(), 1, 1, 0, 1024);
  a->on_token_write_release(sim.now(), 1, 1, 0, 2048);  // releases more than held
  EXPECT_EQ(a->count(Violation::kTokenConservation), 1u);
}

TEST(SimCheckTokens, UnflushedRevokeAckDetected) {
  Simulation sim;
  auto* a = sim.auditor();
  a->set_fail_fast(false);
  a->check_token_flush(sim.now(), /*unflushed=*/0);  // clean ack
  EXPECT_EQ(a->count(Violation::kTokenConservation), 0u);
  a->check_token_flush(sim.now(), /*unflushed=*/512);
  EXPECT_EQ(a->count(Violation::kTokenConservation), 1u);
}

TEST(SimCheckTokens, RealWriteWorkloadConserves) {
  // End-to-end: a conflicting checkpoint run keeps the auditor ledger in
  // lock-step with the token manager (run_write_workload calls
  // check_token_conservation at collection time and throws on violation).
  workload::WriteWorkloadSpec spec;
  spec.kind = workload::WriteWorkloadKind::kCheckpoint;
  spec.writers = 4;
  spec.rounds = 3;
  spec.conflicting = true;
  const auto r = workload::run_write_workload(spec);
  EXPECT_EQ(r.verify_failures, 0u);
}

// --- seeded injection: the auditor audits itself ----------------------------

class SimCheckInjection : public ::testing::TestWithParam<std::uint64_t> {};

void drive_events(Simulation& sim, int n) {
  for (int i = 0; i < n; ++i) {
    sim.call_at(sim.now() + 0.1 * (i + 1), [] {});
  }
  sim.run();
}

TEST_P(SimCheckInjection, EveryViolationClassIsCaught) {
  const std::uint64_t seed = GetParam();
  const Violation kinds[] = {Violation::kCausality, Violation::kDoubleResume,
                             Violation::kResumeAfterDestroy, Violation::kResourceAccounting,
                             Violation::kBufferConservation,
                             Violation::kCoalesceConservation,
                             Violation::kCacheBitmapConservation,
                             Violation::kTokenConservation};
  for (Violation kind : kinds) {
    Simulation sim;
    auto* a = sim.auditor();
    a->set_fail_fast(false);
    a->arm_injection(kind, seed);
    EXPECT_TRUE(a->injection_armed());
    drive_events(sim, 40);  // > max trigger countdown (16 audited events)
    EXPECT_FALSE(a->injection_armed());
    EXPECT_EQ(a->count(kind), 1u)
        << "seed " << seed << " kind " << check::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCheckInjection, ::testing::Values(1u, 42u, 0xdeadbeefu));

// --- determinism digest -----------------------------------------------------

workload::WorkloadSpec small_spec(pfs::IoMode mode, bool prefetch) {
  workload::WorkloadSpec w;
  w.mode = mode;
  w.request_size = 64 * 1024;
  w.file_size = 1024 * 1024;
  w.prefetch = prefetch;
  w.compute_delay = prefetch ? 0.005 : 0.0;
  return w;
}

TEST(SimCheckDigest, IdenticalAcrossRepeatedRuns) {
  workload::Experiment exp;
  const auto w = small_spec(pfs::IoMode::kRecord, true);
  const auto r1 = exp.run(w);
  const auto r2 = exp.run(w);
  EXPECT_NE(r1.digest, 0u);
  EXPECT_GT(r1.events_dispatched, 0u);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.events_dispatched, r2.events_dispatched);
}

// Digest regression over the paper-shape scenario matrix: every mode the
// figures exercise must be reproducible run-to-run (and the digest must
// actually discriminate between scenarios).
TEST(SimCheckDigest, PaperShapeScenariosReproduce) {
  workload::Experiment exp;
  std::vector<std::uint64_t> digests;
  for (pfs::IoMode mode : {pfs::IoMode::kRecord, pfs::IoMode::kUnix, pfs::IoMode::kGlobal,
                           pfs::IoMode::kSync}) {
    for (bool prefetch : {false, true}) {
      const auto w = small_spec(mode, prefetch);
      const auto r1 = exp.run(w);
      const auto r2 = exp.run(w);
      EXPECT_EQ(r1.digest, r2.digest)
          << "nondeterminism in mode " << pfs::to_string(mode) << " prefetch=" << prefetch;
      digests.push_back(r1.digest);
    }
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end())
      << "distinct scenarios collapsed to the same digest";
}

TEST(SimCheckDigest, StepCountsAndDigestAdvanceTogether) {
  Simulation sim;
  EXPECT_EQ(sim.events_dispatched(), 0u);
  const auto d0 = sim.digest();
  sim.call_at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_NE(sim.digest(), d0);
}

// --- pending-process teardown -----------------------------------------------

TEST(SimCheckTeardown, DestroyPendingProcessesUnwindsBlockedProcess) {
  Simulation sim;
  Event never(sim);
  sim.spawn(tick_forever(sim, never));
  sim.run();
  ASSERT_EQ(sim.live_processes(), 1u);  // blocked on the never-set event
  EXPECT_EQ(sim.destroy_pending_processes(), 1u);
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimCheckTeardown, DestructorDestroysPendingFrames) {
  // Drop a Simulation with a blocked process: the frame must be destroyed
  // (ASan/LSan builds verify no leak) and teardown must not crash.
  auto sim = std::make_unique<Simulation>();
  auto never = std::make_unique<Event>(*sim);
  sim->spawn(tick_forever(*sim, *never));
  sim->run();
  ASSERT_EQ(sim->live_processes(), 1u);
  sim.reset();
}

TEST(SimCheckTeardown, AbortedRunDestroysOtherProcesses) {
  Simulation sim;
  Event never(sim);
  sim.spawn(tick_forever(sim, never));
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(2.0);
    throw std::runtime_error("model bug");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
  // The rethrow path unwinds the blocked process too, so aborted runs do
  // not leak frames (and later teardown cannot touch dead objects).
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimCheckTeardown, GuardsReleaseDuringTeardown) {
  Simulation sim;
  Resource res(sim, 1);
  Event never(sim);
  sim.spawn([](Simulation& s, Resource& r, Event& ev) -> Task<void> {
    auto g = co_await r.acquire(1);
    co_await s.delay(0.1);
    co_await ev.wait();  // blocks forever while holding the guard
  }(sim, res, never));
  sim.run();
  ASSERT_EQ(res.in_use(), 1u);
  EXPECT_EQ(sim.destroy_pending_processes(), 1u);
  // The frame's ResourceGuard released on unwind: accounting balanced.
  EXPECT_EQ(res.in_use(), 0u);
  EXPECT_EQ(sim.auditor()->resource_outstanding(&res), 0);
  EXPECT_EQ(sim.auditor()->count(Violation::kResourceAccounting), 0u);
}

}  // namespace
}  // namespace ppfs::sim
