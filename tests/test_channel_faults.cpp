// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Tests for wait_with_timeout, disk fault injection, and whole-stack
// behavior under a degraded I/O node.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hw/disk.hpp"
#include "hw/machine.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "workload/experiment.hpp"

namespace ppfs {
namespace {

using sim::Event;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

TEST(WaitWithTimeout, EventFirstReturnsTrue) {
  Simulation sim;
  Event ev(sim);
  bool result = false;
  SimTime when = -1;
  sim.spawn([](Simulation& s, Event& e, bool& res, SimTime& t) -> Task<void> {
    res = co_await sim::wait_with_timeout(s, e, 5.0);
    t = s.now();
  }(sim, ev, result, when));
  sim.call_at(1.0, [&] { ev.set(); });
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_DOUBLE_EQ(when, 1.0);
}

TEST(WaitWithTimeout, TimeoutFirstReturnsFalse) {
  Simulation sim;
  Event ev(sim);
  bool result = true;
  SimTime when = -1;
  sim.spawn([](Simulation& s, Event& e, bool& res, SimTime& t) -> Task<void> {
    res = co_await sim::wait_with_timeout(s, e, 2.0);
    t = s.now();
  }(sim, ev, result, when));
  sim.call_at(10.0, [&] { ev.set(); });  // too late
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_DOUBLE_EQ(when, 2.0);
}

TEST(WaitWithTimeout, AlreadySetIsImmediateTrue) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  bool result = false;
  sim.spawn([](Simulation& s, Event& e, bool& res) -> Task<void> {
    res = co_await sim::wait_with_timeout(s, e, 1.0);
  }(sim, ev, result));
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// --- disk fault injection ---

TEST(DiskFaults, SlowdownWindowStretchesServiceTime) {
  auto timed_read = [](double factor, SimTime from, SimTime until) {
    Simulation sim;
    hw::Disk d(sim, "d0", hw::DiskParams::paragon_era());
    if (factor > 0) d.inject_slowdown(factor, from, until);
    SimTime elapsed = -1;
    sim.spawn([](Simulation& s, hw::Disk& disk, SimTime& out) -> Task<void> {
      co_await disk.transfer(1000, 256 * 1024, false);
      out = s.now();
    }(sim, d, elapsed));
    sim.run();
    return elapsed;
  };
  const SimTime healthy = timed_read(0, 0, 0);
  const SimTime degraded = timed_read(4.0, 0.0, 100.0);
  EXPECT_NEAR(degraded, healthy * 4.0, healthy * 0.05);
  // Window in the past: no effect.
  EXPECT_DOUBLE_EQ(timed_read(4.0, 100.0, 200.0), healthy);
}

TEST(DiskFaults, OverlappingWindowsCompound) {
  Simulation sim;
  hw::Disk d(sim, "d0", hw::DiskParams::paragon_era());
  d.inject_slowdown(2.0, 0, 100);
  d.inject_slowdown(3.0, 0, 100);
  SimTime elapsed = -1;
  sim.spawn([](Simulation& s, hw::Disk& disk, SimTime& out) -> Task<void> {
    co_await disk.transfer(0, 64 * 1024, false);
    out = s.now();
  }(sim, d, elapsed));
  sim.run();
  Simulation sim2;
  hw::Disk d2(sim2, "d1", hw::DiskParams::paragon_era());
  SimTime base = -1;
  sim2.spawn([](Simulation& s, hw::Disk& disk, SimTime& out) -> Task<void> {
    co_await disk.transfer(0, 64 * 1024, false);
    out = s.now();
  }(sim2, d2, base));
  sim2.run();
  EXPECT_NEAR(elapsed, base * 6.0, base * 0.05);
  EXPECT_EQ(d.slowed_ops(), 1u);
}

TEST(DiskFaults, RejectsNonPositiveFactor) {
  Simulation sim;
  hw::Disk d(sim, "d0", hw::DiskParams::paragon_era());
  EXPECT_THROW(d.inject_slowdown(0.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(d.inject_slowdown(-2.0, 0, 1), std::invalid_argument);
}

TEST(DiskFaults, DegradedIoNodeSlowsCollectiveButDataCorrect) {
  // One I/O node's RAID members run 8x slow: the collective read (which
  // completes only when every node's request is served) degrades, and the
  // bytes are still exactly right. This is the "prefetching benefits
  // should be equally distributed amongst the processors" stress case.
  auto run_one = [](bool degrade) {
    Simulation sim;
    hw::Machine machine(sim, hw::MachineConfig::paragon(4, 4));
    if (degrade) {
      auto& raid = machine.raid(2);
      for (std::size_t m = 0; m < raid.member_count(); ++m) {
        raid.member(m).inject_slowdown(8.0, 0.0, 1e9);
      }
    }
    pfs::PfsFileSystem fs(machine, pfs::PfsParams{});
    fs.create("f", fs.default_attrs());
    pfs::PfsClient client(fs, 0, 0, 1);
    auto data = ppfs::test::make_pattern(2, 0, 1024 * 1024);
    std::vector<std::byte> back(1024 * 1024);
    SimTime read_time = -1;
    ppfs::test::run_task(sim, [](Simulation& s, pfs::PfsClient& c,
                                 std::span<const std::byte> in, std::span<std::byte> out,
                                 SimTime& t) -> Task<void> {
      const int fd = co_await c.open("f", pfs::IoMode::kAsync);
      co_await c.write(fd, in);
      co_await c.seek(fd, 0);
      const SimTime t0 = s.now();
      co_await c.read(fd, out);
      t = s.now() - t0;
      c.close(fd);
    }(sim, client, data, back, read_time));
    EXPECT_TRUE(ppfs::test::check_pattern(back, 2, 0));
    return read_time;
  };
  const SimTime healthy = run_one(false);
  const SimTime degraded = run_one(true);
  EXPECT_GT(degraded, healthy * 2.0);  // straggler gates the collective
}

}  // namespace
}  // namespace ppfs
