// when_all: run a set of child processes concurrently and await them all.
//
// Used for collective operations: the experiment driver spawns one process
// per compute node and joins on all of them, like the paper's collective
// read that is "complete when the individual I/O requests of all the nodes
// have been satisfied".
#pragma once

#include <cstddef>
#include <exception>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/frame_arena.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace ppfs::sim {

namespace detail {

inline Task<void> notify_when_done(Task<void> t, std::size_t& remaining, Event& done) {
  co_await std::move(t);
  if (--remaining == 0) done.set();
}

// when_all_propagate's join state. It sits in a FrameArena block, and the
// awaiting frame and every child hold a counted JoinRef to it: a child that
// outlives its awaiting frame (teardown destroys process roots in any
// order) still holds it safely, and the last reference frees it.
struct JoinState {
  explicit JoinState(Simulation& s) : done(s) {}
  Event done;
  std::size_t remaining = 0;
  std::size_t refs = 0;
  std::exception_ptr first_error;
};

class JoinRef {
 public:
  JoinRef(Simulation& sim, std::size_t remaining)
      : st_(::new (FrameArena::local().allocate(sizeof(JoinState))) JoinState(sim)) {
    st_->remaining = remaining;
    st_->refs = 1;
  }
  JoinRef(const JoinRef& other) noexcept : st_(other.st_) { ++st_->refs; }
  JoinRef& operator=(const JoinRef&) = delete;
  ~JoinRef() {
    if (--st_->refs == 0) {
      st_->~JoinState();
      FrameArena::local().deallocate(st_);
    }
  }
  JoinState* operator->() const noexcept { return st_; }

 private:
  JoinState* st_;
};

inline Task<void> settle_when_done(Task<void> t, JoinRef st) {
  try {
    co_await std::move(t);
  } catch (...) {
    if (!st->first_error) st->first_error = std::current_exception();
  }
  if (--st->remaining == 0) st->done.set();
}

}  // namespace detail

/// Await completion of every task in `tasks`. Children run concurrently.
/// An exception in a child is reported through the Simulation error channel
/// (fatal to the run), matching the "a lost process is a model bug" policy.
inline Task<void> when_all(Simulation& sim, std::vector<Task<void>> tasks) {
  if (tasks.empty()) co_return;
  Event done(sim);
  std::size_t remaining = tasks.size();
  for (auto& t : tasks) {
    sim.spawn(detail::notify_when_done(std::move(t), remaining, done));
  }
  co_await done.wait();
}

// ppfs::hot — when_all_propagate runs once per request fan-out: the tasks
// arrive in the caller's inline storage and the join state is an arena block

/// Like when_all, but a child's exception is captured and rethrown to the
/// awaiter once every child has settled, instead of going through the fatal
/// Simulation error channel. The first error (in completion order) wins.
/// Use for fan-outs whose children may fail with recoverable fault errors —
/// a degraded RAID member or a crashed I/O node must surface to the caller
/// as a catchable error, not kill the run. The tasks are moved out of
/// `tasks` when the join starts, so the span only has to stay valid until
/// the awaiting co_await begins.
inline Task<void> when_all_propagate(Simulation& sim, std::span<Task<void>> tasks) {
  if (tasks.empty()) co_return;
  const detail::JoinRef st(sim, tasks.size());
  for (Task<void>& t : tasks) sim.spawn(detail::settle_when_done(std::move(t), st));
  co_await st->done.wait();
  if (st->first_error) std::rethrow_exception(st->first_error);
}
// ppfs::endhot

}  // namespace ppfs::sim
