// Synchronization primitives for simulation processes.
//
// Event      — one-shot latch. wait() returns immediately once set; set()
//              wakes all current waiters. reset() re-arms it. Models I/O
//              completion notifications (the Paragon ART completion flag).
//              wait_with_timeout() bounds a wait on one by a deadline.
// Barrier    — N-party synchronization. arrive_and_wait() suspends until
//              all N parties have arrived, then releases everyone and
//              re-arms for the next round. Models the gang synchronization
//              of the M_SYNC I/O mode.
//
// All wakeups are scheduled through the Simulation event queue at the
// current time, never inline, so wake order is deterministic and waiters
// cannot re-enter the primitive while it is mid-update.
#pragma once

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/inline_vec.hpp"
#include "sim/simulation.hpp"
#include "sim/small_fn.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::sim {

class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const noexcept { return set_; }

  /// Latch the event and wake every waiting process (at the current time).
  void set();

  /// Re-arm a set event. No effect on waiters (there are none if set).
  void reset() noexcept { set_ = false; }

  /// Register a one-shot callback that runs (through the event queue, at
  /// the current time) when the event is next set — immediately if it is
  /// already set. Unlike wait(), this needs no coroutine frame, so a
  /// callback on an event that never fires leaks no parked process.
  void on_set(SmallFn cb);

  // ppfs::hot — Event set/wait: waiters are coroutine handles in inline
  // storage, so parking one allocates nothing below three waiters

  /// Awaitable: resume immediately if set, otherwise when set() is called.
  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }
  // ppfs::endhot

  std::size_t waiter_count() const noexcept { return waiters_.size(); }

 private:
  Simulation& sim_;
  bool set_ = false;
  // Handles, not intrusive nodes threaded through the awaiters: a frame
  // destroyed while it waits leaves a handle that SimCheck refuses at
  // dispatch, not a dangling list node.
  InlineVec<std::coroutine_handle<>, 2> waiters_;
  std::vector<SmallFn> callbacks_;
};

/// Wait for `ev` with a deadline. Resolves true if the event fired, false
/// on timeout. Entirely callback-driven: the loser of the race is a plain
/// queue callback holding the shared state, never a parked process, so
/// live_processes() is unaffected even when the event never fires.
Task<bool> wait_with_timeout(Simulation& sim, Event& ev, SimTime dt);

class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties) : sim_(sim), parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Awaitable: the Nth arrival releases all parties and re-arms the
  /// barrier for the next round. With parties == 1 this never suspends
  /// (but still yields through the event queue for determinism).
  auto arrive_and_wait() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        b.waiters_.push_back(h);
        if (b.waiters_.size() >= b.parties_) {
          b.release_all();
        }
        return true;  // always suspend; release schedules resumption
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::size_t arrived() const noexcept { return waiters_.size(); }

 private:
  void release_all();

  Simulation& sim_;
  std::size_t parties_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace ppfs::sim
