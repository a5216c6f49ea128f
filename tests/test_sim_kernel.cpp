// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Unit tests for the discrete-event kernel: Simulation, Task, Event,
// Barrier, Resource, when_all, Rng determinism.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/when_all.hpp"

namespace ppfs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CallbackRunsAtScheduledTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.call_at(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, CallbacksRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.call_at(3.0, [&] { order.push_back(3); });
  sim.call_at(1.0, [&] { order.push_back(1); });
  sim.call_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TiesBreakInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.call_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, CallAtAcceptsMoveOnlyCallable) {
  // call_at must move the callable all the way into the queue — a
  // unique_ptr capture makes any accidental copy a compile error, and its
  // non-trivial destructor exercises SmallFn's boxed-storage path.
  Simulation sim;
  int fired = 0;
  auto token = std::make_unique<int>(7);
  sim.call_at(1.0, [t = std::move(token), &fired] { fired += *t; });
  sim.run();
  EXPECT_EQ(fired, 7);
}

TEST(Simulation, LargeCaptureCallbackRuns) {
  // Four references exceed SmallFn's inline budget; the closure rides in
  // the arena box and must still fire exactly once.
  Simulation sim;
  int a = 0, b = 0, c = 0;
  sim.call_at(1.0, [&sim, &a, &b, &c] {
    a = 1;
    b = 2;
    c = static_cast<int>(sim.now());
  });
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(c, 1);
}

TEST(Simulation, RunUntilStopsBeforeLaterEvents) {
  Simulation sim;
  int count = 0;
  sim.call_at(1.0, [&] { ++count; });
  sim.call_at(5.0, [&] { ++count; });
  sim.run(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, DelayAdvancesTime) {
  Simulation sim;
  SimTime t_mid = -1, t_end = -1;
  sim.spawn([](Simulation& s, SimTime& mid, SimTime& end) -> Task<void> {
    co_await s.delay(1.5);
    mid = s.now();
    co_await s.delay(2.0);
    end = s.now();
  }(sim, t_mid, t_end));
  sim.run();
  EXPECT_DOUBLE_EQ(t_mid, 1.5);
  EXPECT_DOUBLE_EQ(t_end, 3.5);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulation, ZeroDelayYieldsButDoesNotAdvanceTime) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& ord, int id) -> Task<void> {
    ord.push_back(id);
    co_await s.delay(0);
    ord.push_back(id + 10);
  };
  sim.spawn(proc(sim, order, 1));
  sim.spawn(proc(sim, order, 2));
  sim.run();
  // Both run their first leg at spawn, then interleave after the yield.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, SpawnedProcessRunsEagerlyUntilFirstAwait) {
  Simulation sim;
  bool ran = false;
  sim.spawn([](Simulation& s, bool& flag) -> Task<void> {
    flag = true;
    co_await s.delay(1.0);
  }(sim, ran));
  EXPECT_TRUE(ran);  // before run()
  sim.run();
}

TEST(Simulation, NestedTaskReturnsValue) {
  Simulation sim;
  int result = 0;
  auto child = [](Simulation& s) -> Task<int> {
    co_await s.delay(1.0);
    co_return 42;
  };
  sim.spawn([](Simulation& s, auto childfn, int& out) -> Task<void> {
    out = co_await childfn(s);
  }(sim, child, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulation, DeeplyNestedTasksComplete) {
  Simulation sim;
  // Recursion depth 100: exercises symmetric transfer through the chain.
  struct Rec {
    static Task<int> go(Simulation& s, int depth) {
      if (depth == 0) {
        co_await s.delay(0.001);
        co_return 0;
      }
      int below = co_await go(s, depth - 1);
      co_return below + 1;
    }
  };
  int result = -1;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await Rec::go(s, 100);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 100);
}

TEST(Simulation, ProcessExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, ChildExceptionPropagatesToAwaitingParent) {
  Simulation sim;
  bool caught = false;
  auto child = [](Simulation& s) -> Task<void> {
    co_await s.delay(0.5);
    throw std::logic_error("child failed");
  };
  sim.spawn([](Simulation& s, auto childfn, bool& flag) -> Task<void> {
    try {
      co_await childfn(s);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(sim, child, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Event, WaitReturnsImmediatelyWhenSet) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  SimTime when = -1;
  sim.spawn([](Simulation& s, Event& e, SimTime& w) -> Task<void> {
    co_await e.wait();
    w = s.now();
  }(sim, ev, when));
  sim.run();
  EXPECT_DOUBLE_EQ(when, 0.0);
}

TEST(Event, SetWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Event& e, int& count) -> Task<void> {
      co_await e.wait();
      ++count;
    }(ev, woken));
  }
  sim.call_at(2.0, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Event, ResetReArms) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  EXPECT_TRUE(ev.is_set());
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  int woken = 0;
  sim.spawn([](Event& e, int& count) -> Task<void> {
    co_await e.wait();
    ++count;
  }(ev, woken));
  sim.call_at(1.0, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woken, 1);
}

TEST(Barrier, ReleasesWhenAllArrive) {
  Simulation sim;
  Barrier bar(sim, 3);
  std::vector<SimTime> releases;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Barrier& b, std::vector<SimTime>& out, double start) -> Task<void> {
      co_await s.delay(start);
      co_await b.arrive_and_wait();
      out.push_back(s.now());
    }(sim, bar, releases, static_cast<double>(i)));
  }
  sim.run();
  ASSERT_EQ(releases.size(), 3u);
  for (auto t : releases) EXPECT_DOUBLE_EQ(t, 2.0);  // latest arrival gates all
}

TEST(Barrier, ReArmsForNextRound) {
  Simulation sim;
  Barrier bar(sim, 2);
  std::vector<SimTime> releases;
  auto proc = [](Simulation& s, Barrier& b, std::vector<SimTime>& out, double d) -> Task<void> {
    for (int round = 0; round < 2; ++round) {
      co_await s.delay(d);
      co_await b.arrive_and_wait();
      out.push_back(s.now());
    }
  };
  sim.spawn(proc(sim, bar, releases, 1.0));
  sim.spawn(proc(sim, bar, releases, 3.0));
  sim.run();
  ASSERT_EQ(releases.size(), 4u);
  EXPECT_DOUBLE_EQ(releases[0], 3.0);
  EXPECT_DOUBLE_EQ(releases[1], 3.0);
  EXPECT_DOUBLE_EQ(releases[2], 6.0);
  EXPECT_DOUBLE_EQ(releases[3], 6.0);
}

TEST(Resource, GrantsUpToCapacityImmediately) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<SimTime> grants;
  auto proc = [](Simulation& s, Resource& r, std::vector<SimTime>& out) -> Task<void> {
    auto guard = co_await r.acquire();
    out.push_back(s.now());
    co_await s.delay(1.0);
  };
  for (int i = 0; i < 4; ++i) sim.spawn(proc(sim, res, grants));
  sim.run();
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_DOUBLE_EQ(grants[1], 0.0);
  EXPECT_DOUBLE_EQ(grants[2], 1.0);
  EXPECT_DOUBLE_EQ(grants[3], 1.0);
  EXPECT_EQ(res.in_use(), 0u);
}

TEST(Resource, FifoNoOvertaking) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<int> order;
  // First holder takes both units; then a 2-unit request queues ahead of a
  // 1-unit request. The 1-unit request must NOT overtake it.
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& ord) -> Task<void> {
    auto g = co_await r.acquire(2);
    ord.push_back(0);
    co_await s.delay(1.0);
  }(sim, res, order));
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& ord) -> Task<void> {
    co_await s.delay(0.1);
    auto g = co_await r.acquire(2);
    ord.push_back(1);
    co_await s.delay(1.0);
  }(sim, res, order));
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& ord) -> Task<void> {
    co_await s.delay(0.2);
    auto g = co_await r.acquire(1);
    ord.push_back(2);
  }(sim, res, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, GuardMoveTransfersOwnership) {
  Simulation sim;
  Resource res(sim, 1);
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    auto g1 = co_await r.acquire();
    EXPECT_EQ(r.in_use(), 1u);
    ResourceGuard g2 = std::move(g1);
    EXPECT_FALSE(g1.owns());
    EXPECT_TRUE(g2.owns());
    EXPECT_EQ(r.in_use(), 1u);
    g2.release();
    EXPECT_EQ(r.in_use(), 0u);
    co_await s.delay(0);
  }(sim, res));
  sim.run();
}

TEST(Resource, EarlyReleaseAllowsReacquire) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<SimTime> grants;
  sim.spawn([](Simulation& s, Resource& r, std::vector<SimTime>& ) -> Task<void> {
    auto g = co_await r.acquire();
    co_await s.delay(1.0);
    g.release();
    co_await s.delay(5.0);
  }(sim, res, grants));
  sim.spawn([](Simulation& s, Resource& r, std::vector<SimTime>& out) -> Task<void> {
    auto g = co_await r.acquire();
    out.push_back(s.now());
  }(sim, res, grants));
  sim.run();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0], 1.0);
}

TEST(WhenAll, JoinsAllChildren) {
  Simulation sim;
  SimTime done_at = -1;
  sim.spawn([](Simulation& s, SimTime& out) -> Task<void> {
    std::vector<Task<void>> kids;
    for (int i = 1; i <= 4; ++i) {
      kids.push_back([](Simulation& ss, double d) -> Task<void> {
        co_await ss.delay(d);
      }(s, static_cast<double>(i)));
    }
    co_await when_all(s, std::move(kids));
    out = s.now();
  }(sim, done_at));
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 4.0);
}

TEST(WhenAll, EmptySetCompletesImmediately) {
  Simulation sim;
  bool done = false;
  sim.spawn([](Simulation& s, bool& flag) -> Task<void> {
    co_await when_all(s, {});
    flag = true;
  }(sim, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next());
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace ppfs::sim
