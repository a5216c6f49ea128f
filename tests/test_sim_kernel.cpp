// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Unit tests for the discrete-event kernel: Simulation, EventQueue, Task,
// Event, Barrier, Resource, when_all, Rng determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
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
  std::vector<double> order;
  sim.call_at(1.0, [&] { ++count; order.push_back(sim.now()); });
  sim.call_at(5.0, [&] { ++count; order.push_back(sim.now()); });
  sim.run(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  // run(2.0) looked at the 5.0 event before it stopped; an event scheduled
  // afterwards between now and 5.0 must still dispatch first.
  sim.call_at(3.0, [&] { ++count; order.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(order, (std::vector<double>{1.0, 3.0, 5.0}));
}

// Drives an EventQueue and a reference heap over (time, seq) through the
// same program and checks that every pop matches: time, sequence and
// payload. Payloads rotate through a coroutine handle (a fake address the
// queue never resumes), an inline callback and a boxed one, whose captured
// token counts the callbacks still alive.
class QueueVsReference {
 public:
  void push(SimTime t) {
    const std::uint64_t seq = next_seq_++;
    switch (seq % 3) {
      case 0:
        q_.push(t, seq, handle_for(seq));
        break;
      case 1:
        q_.push(t, seq, [this, seq] { got_ = seq; });
        break;
      default:
        q_.push(t, seq, [this, seq, token = token_] { got_ = seq + *token; });
        break;
    }
    ref_.push(Ref{t, seq});
  }

  ::testing::AssertionResult pop() {
    if (q_.empty() != ref_.empty() || q_.size() != ref_.size()) {
      return ::testing::AssertionFailure() << "size " << q_.size() << ", reference " << ref_.size();
    }
    const Ref want = ref_.top();
    ref_.pop();
    if (q_.top_time() != want.t) {
      return ::testing::AssertionFailure() << "top_time " << q_.top_time() << ", want " << want.t;
    }
    EventQueue::Entry e = q_.pop();
    if (e.t != want.t || std::signbit(e.t) || e.seq != want.seq) {
      return ::testing::AssertionFailure() << "popped (" << e.t << ", " << e.seq << "), want ("
                                           << want.t << ", " << want.seq << ")";
    }
    if (want.seq % 3 == 0) {
      if (e.h != handle_for(want.seq) || e.fn) return ::testing::AssertionFailure() << "handle payload";
    } else {
      got_ = ~std::uint64_t{0};
      if (e.h || !e.fn) return ::testing::AssertionFailure() << "callback payload";
      e.fn();
      if (got_ != want.seq) return ::testing::AssertionFailure() << "callback of seq " << got_;
    }
    now_ = e.t;
    return ::testing::AssertionSuccess();
  }

  /// Empties both sides. The queue also reserves room for more events
  /// than the program has pushed, which starts a new pool block while the
  /// current one still has unused chunks.
  void clear() {
    q_.clear();
    q_.reserve(4 * next_seq_);
    ref_ = {};
    now_ = 0;
  }

  SimTime now() const { return now_; }
  bool empty() const { return ref_.empty(); }
  /// Boxed callbacks alive in the queue.
  long boxed_alive() const { return token_.use_count() - 1; }

 private:
  struct Ref {
    SimTime t;
    std::uint64_t seq;
    bool operator>(const Ref& o) const { return t > o.t || (t == o.t && seq > o.seq); }
  };
  static std::coroutine_handle<> handle_for(std::uint64_t seq) {
    return std::coroutine_handle<>::from_address(reinterpret_cast<void*>((seq + 1) << 4));
  }

  EventQueue q_;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t got_ = 0;
  SimTime now_ = 0;
  std::shared_ptr<const std::uint64_t> token_ = std::make_shared<const std::uint64_t>(0);
};

/// A time no earlier than `now`: a tie at now, a tie on a coarse grid, the
/// next double up, a near or a far exponential delay, or -0.0 at time 0.
SimTime next_time(Rng& rng, SimTime now) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return now;
    case 1:  // a multiple of 1/4 (exact: now / 0.25 and the product are)
      return (std::ceil(now / 0.25) + static_cast<double>(rng.uniform_int(0, 3))) * 0.25;
    case 2:
      return std::nextafter(now, kTimeInfinity);
    case 3:
      return now + rng.exponential(0.01);
    case 4:
      return now + rng.exponential(10.0);
    default:
      return now == 0 ? -0.0 : now;
  }
}

TEST(EventQueue, RandomProgramsMatchAReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    QueueVsReference c;
    for (int step = 0; step < 3000; ++step) {
      const double u = rng.uniform01();
      if (u < 0.52 || c.empty()) {
        c.push(next_time(rng, c.now()));
      } else if (u < 0.997) {
        ASSERT_TRUE(c.pop());
      } else {
        c.clear();  // drops every callback; the next push may be at 0 again
        ASSERT_EQ(c.boxed_alive(), 0);
      }
    }
    while (!c.empty()) ASSERT_TRUE(c.pop());
    EXPECT_EQ(c.boxed_alive(), 0);
  }
  // A deep drain: 10^5 events pushed at time 0, mostly ties.
  Rng rng(99);
  QueueVsReference c;
  for (int i = 0; i < 100000; ++i) c.push(next_time(rng, 0.0));
  while (!c.empty()) ASSERT_TRUE(c.pop());
  EXPECT_EQ(c.boxed_alive(), 0);
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
