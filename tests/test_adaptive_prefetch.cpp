// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// AdaptaFetch: the adaptive readahead controller, the pattern-predictor
// ensemble, and the end-to-end contracts — seed-determinism across sweep
// workers, default-off digest identity, and fault-path collapse/resume.
// (The per-fd FlatMap they keep state in is tested in test_flat_map.cpp.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/sweep.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/controller.hpp"
#include "prefetch/engine.hpp"
#include "prefetch/ensemble.hpp"
#include "prefetch/predictor.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "workload/experiment.hpp"

namespace ppfs::prefetch {
namespace {

using pfs::IoMode;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;
using workload::Experiment;
using workload::ExperimentResult;
using workload::WorkloadSpec;

// --- AdaptiveController (pure unit tests; no machine needed) ---------------

ControllerParams test_params(std::size_t max_depth = 8, std::size_t window = 4,
                             std::size_t miss_storm = 4) {
  ControllerParams p;
  p.max_depth = max_depth;
  p.window = window;
  p.miss_storm = miss_storm;
  p.seed = 0;  // full-length first window: tests count reads exactly
  return p;
}

TEST(AdaptiveController, UnknownFdUsesMinDepth) {
  AdaptiveController c(test_params());
  EXPECT_EQ(c.depth(99), 1u);
}

TEST(AdaptiveController, RampsUpOnHitWindowsUntilMax) {
  AdaptiveController c(test_params(8, 4));
  c.on_open(1);
  EXPECT_EQ(c.depth(1), 1u);
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 4; ++i) c.on_hit(1);
  }
  EXPECT_EQ(c.depth(1), 8u);  // 1 -> 2 -> 4 -> 8
  EXPECT_EQ(c.counters().ramp_ups, 3u);
  // Further perfect windows stay capped at max_depth.
  for (int i = 0; i < 4; ++i) c.on_hit(1);
  EXPECT_EQ(c.depth(1), 8u);
  EXPECT_EQ(c.counters().ramp_ups, 3u);
}

TEST(AdaptiveController, LosingWindowHalvesDepth) {
  AdaptiveController c(test_params(8, 4, /*miss_storm=*/100));
  c.on_open(1);
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 4; ++i) c.on_hit(1);
  }
  ASSERT_EQ(c.depth(1), 4u);
  // 1 hit in 4 reads: below the 1/2 floor -> halve.
  c.on_miss(1);
  c.on_miss(1);
  c.on_hit(1);
  c.on_miss(1);
  EXPECT_EQ(c.depth(1), 2u);
  EXPECT_EQ(c.counters().ramp_downs, 1u);
}

TEST(AdaptiveController, MixedWindowHoldsDepth) {
  AdaptiveController c(test_params(8, 4, /*miss_storm=*/100));
  c.on_open(1);
  for (int i = 0; i < 4; ++i) c.on_hit(1);
  ASSERT_EQ(c.depth(1), 2u);
  // 2/4 hits: not >= 3/4 (no ramp) and not < 1/2 (no halve).
  c.on_hit(1);
  c.on_miss(1);
  c.on_hit(1);
  c.on_miss(1);
  EXPECT_EQ(c.depth(1), 2u);
  EXPECT_EQ(c.counters().ramp_downs, 0u);
}

TEST(AdaptiveController, WastedBuffersVetoRampUp) {
  AdaptiveController c(test_params(8, 4, /*miss_storm=*/100));
  c.on_open(1);
  for (int i = 0; i < 4; ++i) c.on_hit(1);
  ASSERT_EQ(c.depth(1), 2u);
  // Perfect hits but the window saw waste: back off instead of ramping.
  c.on_wasted(1, 1);
  for (int i = 0; i < 4; ++i) c.on_hit(1);
  EXPECT_EQ(c.depth(1), 1u);
  EXPECT_EQ(c.counters().ramp_downs, 1u);
}

TEST(AdaptiveController, MissStormCollapsesWithoutWaitingForWindow) {
  AdaptiveController c(test_params(8, /*window=*/16, /*miss_storm=*/4));
  c.on_open(1);
  // Reach depth 8 with two perfect 16-read windows... use window 16: 32 hits.
  for (int i = 0; i < 48; ++i) c.on_hit(1);
  ASSERT_EQ(c.depth(1), 8u);
  for (int i = 0; i < 4; ++i) c.on_miss(1);  // storm: 4 consecutive
  EXPECT_EQ(c.depth(1), 1u);
  EXPECT_EQ(c.counters().collapses, 1u);
  // A hit in between resets the run: 3 misses, hit, 3 misses = no collapse.
  for (int i = 0; i < 32; ++i) c.on_hit(1);
  ASSERT_GT(c.depth(1), 1u);
  for (int i = 0; i < 3; ++i) c.on_miss(1);
  c.on_hit(1);
  for (int i = 0; i < 3; ++i) c.on_miss(1);
  EXPECT_EQ(c.counters().collapses, 1u);
}

TEST(AdaptiveController, FaultCollapsesAndCloseForgets) {
  AdaptiveController c(test_params());
  c.on_open(1);
  for (int i = 0; i < 8; ++i) c.on_hit(1);
  ASSERT_EQ(c.depth(1), 4u);
  c.on_fault(1);
  EXPECT_EQ(c.depth(1), 1u);
  EXPECT_EQ(c.counters().collapses, 1u);
  // Ramp again, then close: the fd's state is dropped back to min.
  for (int i = 0; i < 8; ++i) c.on_hit(1);
  ASSERT_EQ(c.depth(1), 4u);
  c.on_close(1);
  EXPECT_EQ(c.depth(1), 1u);
}

TEST(AdaptiveController, SeedPhasesFirstWindowOnly) {
  // seed=2 with window=4: the first evaluation happens after 2 reads, every
  // later one after 4 — the trajectory is still a pure function of the
  // stream, just phase-shifted.
  ControllerParams p = test_params();
  p.seed = 2;
  AdaptiveController c(p);
  c.on_open(1);
  c.on_hit(1);
  c.on_hit(1);  // first (short) window closes: 2/2 hits -> ramp
  EXPECT_EQ(c.depth(1), 2u);
  c.on_hit(1);
  c.on_hit(1);
  c.on_hit(1);
  EXPECT_EQ(c.depth(1), 2u);  // full window not yet closed
  c.on_hit(1);
  EXPECT_EQ(c.depth(1), 4u);
}

// --- ListIoPredictor --------------------------------------------------------

struct Testbed {
  explicit Testbed(int ncompute = 1, int nio = 1)
      : machine(sim, hw::MachineConfig::paragon(ncompute, nio)),
        fs(machine, pfs::PfsParams{}) {
    for (int r = 0; r < ncompute; ++r) {
      clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, ncompute));
    }
  }

  void populate(const std::string& name, ByteCount size) {
    fs.create(name, fs.default_attrs());
    run_task(sim, [](Testbed& tb, std::string n, ByteCount sz) -> Task<void> {
      const int fd = co_await tb.clients[0]->open(n, IoMode::kAsync);
      auto data = make_pattern(1, 0, sz);
      co_await tb.clients[0]->write(fd, data);
      tb.clients[0]->close(fd);
    }(*this, name, size));
  }

  Simulation sim;
  hw::Machine machine;
  pfs::PfsFileSystem fs;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
};

std::vector<FileOffset> predict_vec(Predictor& p, pfs::PfsClient& c, int fd,
                                    FileOffset off, ByteCount len, std::size_t depth) {
  p.observe(c, fd, off, len);
  std::vector<FileOffset> out(depth);
  out.resize(p.predict(c, fd, off, len, out));
  return out;
}

TEST(ListIoPredictor, LearnsGappedExtentCycle) {
  Testbed tb;
  tb.populate("f", 4 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    auto& c = *t.clients[0];
    ListIoPredictor p;
    const ByteCount r = 4096;
    // Delta cycle of period 3: +r, +2r, +3r — deliberately with no shorter
    // period hiding in any prefix (a 2r,2r,... cycle would lock period 1
    // early). Two full cycles are needed before it speaks.
    const FileOffset seq[] = {0, r, 3 * r, 6 * r, 7 * r, 9 * r, 12 * r};
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(predict_vec(p, c, fd, seq[i], r, 3).empty()) << seq[i];
    }
    // 7th observation completes the second cycle; period 3 locks in.
    auto v = predict_vec(p, c, fd, seq[6], r, 4);
    EXPECT_EQ(v.size(), 4u);
    if (v.size() == 4) {
      EXPECT_EQ(v[0], 13 * r);  // +r  (cycle restarts)
      EXPECT_EQ(v[1], 15 * r);  // +2r
      EXPECT_EQ(v[2], 18 * r);  // +3r
      EXPECT_EQ(v[3], 19 * r);  // +r again
    }
    t.clients[0]->close(fd);
  }(tb));
}

TEST(ListIoPredictor, PatternBreakStopsPredictionsUntilRelearned) {
  Testbed tb;
  tb.populate("f", 4 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    auto& c = *t.clients[0];
    ListIoPredictor p;
    const ByteCount r = 4096;
    FileOffset off = 0;
    // Constant delta = period 1; confirmed after two deltas.
    for (int i = 0; i < 3; ++i) {
      p.observe(c, fd, off, r);
      off += 2 * r;
    }
    FileOffset one;
    EXPECT_EQ(p.predict(c, fd, off - 2 * r, r, {&one, 1}), 1u);
    // Break the cycle: a wild seek invalidates the learned period.
    auto v = predict_vec(p, c, fd, 1000 * r, r, 2);
    EXPECT_TRUE(v.empty());
    t.clients[0]->close(fd);
  }(tb));
}

TEST(ListIoPredictor, ForgetDropsHistory) {
  Testbed tb;
  tb.populate("f", 4 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    auto& c = *t.clients[0];
    ListIoPredictor p;
    const ByteCount r = 4096;
    FileOffset off = 0;
    for (int i = 0; i < 3; ++i) {
      p.observe(c, fd, off, r);
      off += 2 * r;
    }
    FileOffset one;
    EXPECT_EQ(p.predict(c, fd, off - 2 * r, r, {&one, 1}), 1u);
    p.forget(fd);
    EXPECT_EQ(p.predict(c, fd, off - 2 * r, r, {&one, 1}), 0u);
    t.clients[0]->close(fd);
  }(tb));
}

// --- EnsemblePredictor ------------------------------------------------------

TEST(EnsemblePredictor, ColdStartIssuesNothing) {
  Testbed tb;
  tb.populate("f", 4 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    EnsemblePredictor p;
    EXPECT_TRUE(predict_vec(p, *t.clients[0], fd, 0, 4096, 4).empty());
    EXPECT_EQ(p.winner(fd), -1);
    t.clients[0]->close(fd);
  }(tb));
}

TEST(EnsemblePredictor, StridedStreamElectsStridedMember) {
  Testbed tb;
  tb.populate("f", 16 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    auto& c = *t.clients[0];
    EnsemblePredictor p;
    const ByteCount r = 4096;
    const FileOffset stride = 32 * r;
    std::vector<FileOffset> last;
    for (int k = 0; k < 8; ++k) {
      last = predict_vec(p, c, fd, static_cast<FileOffset>(k) * stride, r, 2);
    }
    const int w = p.winner(fd);
    EXPECT_GE(w, 0);
    EXPECT_STREQ(EnsemblePredictor::member_name(static_cast<std::size_t>(w)),
                 "strided");
    EXPECT_EQ(last.size(), 2u);
    if (last.size() == 2) {
      EXPECT_EQ(last[0], 8u * stride);
      EXPECT_EQ(last[1], 9u * stride);
    }
    // forget() resets confidence: back to cold.
    p.forget(fd);
    EXPECT_EQ(p.winner(fd), -1);
    EXPECT_TRUE(predict_vec(p, c, fd, 20 * stride, r, 2).empty());
    t.clients[0]->close(fd);
  }(tb));
}

TEST(EnsemblePredictor, SequentialRecordStreamKeepsModeAwareRule) {
  // On the paper's own workload shape the prototype's predictor must stay
  // in charge (declaration-order tie-break).
  Testbed tb(8, 8);
  tb.populate("f", 8 * 1024 * 1024);
  run_task(tb.sim, [](Testbed& t) -> Task<void> {
    auto& c = *t.clients[2];  // rank 2 of 8
    const int fd = co_await c.open("f", IoMode::kRecord);
    EnsemblePredictor p;
    const ByteCount r = 64 * 1024;
    std::vector<std::byte> buf(r);
    std::vector<FileOffset> last;
    for (int k = 0; k < 6; ++k) {
      // tell() reports the collective round base; rank 2's record sits two
      // slots in — the true offset the engine hands to after_read.
      const FileOffset off = c.tell(fd) + 2 * r;
      co_await c.read(fd, buf);
      last = predict_vec(p, c, fd, off, r, 1);
    }
    const int w = p.winner(fd);
    EXPECT_GE(w, 0);
    EXPECT_STREQ(EnsemblePredictor::member_name(static_cast<std::size_t>(w)),
                 "mode-aware");
    c.close(fd);
  }(tb));
}

// --- Engine integration -----------------------------------------------------

TEST(AdaptiveEngine, DepthRampsOnSequentialStreamAndStatsTrackIt) {
  Testbed tb(1, 8);
  tb.populate("f", 8 * 1024 * 1024);
  PrefetchConfig cfg;
  cfg.adaptive_depth = true;
  cfg.max_depth = 8;
  cfg.predictor = PredictorKind::kEnsemble;
  auto engine = attach_prefetcher(*tb.clients[0], cfg);
  run_task(tb.sim, [](Testbed& t, PrefetchEngine& eng) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    EXPECT_EQ(eng.current_depth(fd), 1u);
    std::vector<std::byte> buf(64 * 1024);
    for (int i = 0; i < 32; ++i) {
      co_await t.clients[0]->read(fd, buf);
      co_await t.sim.delay(0.05);
    }
    EXPECT_EQ(eng.current_depth(fd), 8u);
    t.clients[0]->close(fd);
  }(tb, *engine));
  const auto& st = engine->stats();
  EXPECT_GE(st.depth_ramp_ups, 3u);  // 1 -> 2 -> 4 -> 8
  EXPECT_EQ(st.depth_collapses, 0u);
  EXPECT_GT(st.hits_ready + st.hits_in_flight, 20u);
  // Depth histogram populated across the ramp, not just at one depth.
  std::uint64_t buckets_used = 0;
  for (const auto b : st.depth_hist) buckets_used += b != 0;
  EXPECT_GE(buckets_used, 3u);
}

TEST(AdaptiveEngine, MaxDepthBoundedByBufferCap) {
  Testbed tb(1, 8);
  tb.populate("f", 8 * 1024 * 1024);
  PrefetchConfig cfg;
  cfg.adaptive_depth = true;
  cfg.max_depth = 32;
  cfg.max_buffers_per_file = 4;  // occupancy bound wins
  cfg.predictor = PredictorKind::kEnsemble;
  auto engine = attach_prefetcher(*tb.clients[0], cfg);
  run_task(tb.sim, [](Testbed& t, PrefetchEngine& eng) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    for (int i = 0; i < 32; ++i) {
      co_await t.clients[0]->read(fd, buf);
      co_await t.sim.delay(0.05);
    }
    EXPECT_LE(eng.current_depth(fd), 4u);
    t.clients[0]->close(fd);
  }(tb, *engine));
  ASSERT_NE(engine->controller(), nullptr);
  EXPECT_EQ(engine->controller()->params().max_depth, 4u);
}

TEST(AdaptiveEngine, SeekStormCollapsesDepth) {
  Testbed tb(1, 8);
  tb.populate("f", 16 * 1024 * 1024);
  PrefetchConfig cfg;
  cfg.adaptive_depth = true;
  cfg.max_depth = 8;
  cfg.predictor = PredictorKind::kEnsemble;
  auto engine = attach_prefetcher(*tb.clients[0], cfg);
  run_task(tb.sim, [](Testbed& t, PrefetchEngine& eng) -> Task<void> {
    const int fd = co_await t.clients[0]->open("f", IoMode::kAsync);
    std::vector<std::byte> buf(64 * 1024);
    for (int i = 0; i < 16; ++i) {
      co_await t.clients[0]->read(fd, buf);
      co_await t.sim.delay(0.05);
    }
    EXPECT_GT(eng.current_depth(fd), 1u);
    // Unpredictable seek storm: every read now misses.
    sim::Rng rng(7);
    for (int i = 0; i < 8; ++i) {
      co_await t.clients[0]->seek(
          fd, static_cast<FileOffset>(rng.uniform_int(0, 200)) * 64 * 1024);
      co_await t.clients[0]->read(fd, buf);
    }
    EXPECT_EQ(eng.current_depth(fd), 1u);
    t.clients[0]->close(fd);
  }(tb, *engine));
  EXPECT_GE(engine->stats().depth_collapses, 1u);
}

// --- Experiment-level contracts --------------------------------------------

WorkloadSpec adaptive_spec(workload::AccessPattern pattern, pfs::IoMode mode,
                           ByteCount file_size) {
  WorkloadSpec w;
  w.mode = mode;
  w.pattern = pattern;
  w.file_size = file_size;
  w.request_size = 64 * 1024;
  w.compute_delay = 0.004;
  w.verify = true;
  w.prefetch = true;
  w.prefetch_cfg.adaptive_depth = true;
  w.prefetch_cfg.max_depth = 8;
  w.prefetch_cfg.predictor = PredictorKind::kEnsemble;
  return w;
}

TEST(AdaptiveDeterminism, DigestStableAcrossSweepWorkers) {
  // The adaptive acceptance contract: same spec, same digest, --jobs 1 vs 8.
  std::vector<exp::SweepJob> jobs;
  jobs.push_back({"seq", workload::MachineSpec{},
                  adaptive_spec(workload::AccessPattern::kInterleaved,
                                IoMode::kRecord, 8 * 1024 * 1024)});
  jobs.push_back({"strided", workload::MachineSpec{},
                  adaptive_spec(workload::AccessPattern::kStrided, IoMode::kAsync,
                                32 * 1024 * 1024)});
  jobs.push_back({"listio", workload::MachineSpec{},
                  adaptive_spec(workload::AccessPattern::kListIo, IoMode::kAsync,
                                18 * 1024 * 1024)});
  const auto serial = exp::run_sweep(jobs, 1);
  const auto parallel = exp::run_sweep(jobs, 8);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].result.digest, parallel.outcomes[i].result.digest)
        << jobs[i].label;
    EXPECT_EQ(serial.outcomes[i].result.events_dispatched,
              parallel.outcomes[i].result.events_dispatched)
        << jobs[i].label;
    EXPECT_EQ(serial.outcomes[i].result.verify_failures, 0u) << jobs[i].label;
  }
}

TEST(AdaptiveDeterminism, SameSeedSameDigestDifferentSeedStillVerifies) {
  auto w = adaptive_spec(workload::AccessPattern::kInterleaved, IoMode::kRecord,
                         8 * 1024 * 1024);
  Experiment exp;
  w.prefetch_cfg.adaptive_seed = 7;
  const auto a = exp.run(w);
  const auto b = exp.run(w);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  w.prefetch_cfg.adaptive_seed = 8;
  const auto c = exp.run(w);
  EXPECT_EQ(c.verify_failures, 0u);
  EXPECT_EQ(c.total_bytes, a.total_bytes);
}

TEST(AdaptiveDeterminism, AdaptiveOffKnobsKeepLegacyDigest) {
  // Default-off contract: with adaptive_depth=false the new knobs must not
  // perturb the event stream at all.
  WorkloadSpec w;
  w.file_size = 4 * 1024 * 1024;
  w.prefetch = true;
  Experiment exp;
  const auto legacy = exp.run(w);
  w.prefetch_cfg.max_depth = 32;     // ignored while adaptive_depth is off
  w.prefetch_cfg.adaptive_seed = 99;
  w.prefetch_cfg.feedback_window = 2;
  w.prefetch_cfg.miss_storm = 2;
  const auto knobs = exp.run(w);
  EXPECT_EQ(legacy.digest, knobs.digest);
  EXPECT_EQ(legacy.events_dispatched, knobs.events_dispatched);
}

TEST(AdaptiveFaultPath, CrashCollapsesDepthThenRampsBack) {
  // The fault gate and the controller compose: a crash sheds buffers,
  // collapses every fd to depth 1, and the stream still verifies; after
  // recovery the controller ramps again (ramp-ups follow the collapse).
  // The crash lands at t=0.2, deep into steady state: every fd has ramped
  // and holds resident readahead, so the shed and collapse paths both fire.
  auto w = adaptive_spec(workload::AccessPattern::kInterleaved, IoMode::kRecord,
                         16 * 1024 * 1024);
  w.compute_delay = 0.01;
  w.faults = fault::parse_plan("crash:io=1,at=0.2,outage=0.08");
  Experiment exp;
  const ExperimentResult r = exp.run(w);
  EXPECT_GT(r.prefetch.fault_pauses, 0u);
  EXPECT_GT(r.prefetch.shed, 0u);
  EXPECT_GE(r.prefetch.depth_collapses, 1u);
  EXPECT_GT(r.prefetch.depth_ramp_ups, r.prefetch.depth_collapses);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, w.file_size);
  // And the fault run remains deterministic.
  const ExperimentResult again = exp.run(w);
  EXPECT_EQ(r.digest, again.digest);
}

}  // namespace
}  // namespace ppfs::prefetch
