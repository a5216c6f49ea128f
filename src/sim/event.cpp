#include "sim/event.hpp"

#include <memory>
#include <utility>

namespace ppfs::sim {

// ppfs::hot — Event::set wakes in push order through the pre-sized queue;
// both lists keep their storage for the next round
void Event::set() {
  if (set_) return;
  set_ = true;
  // Scheduling only queues: no waiter runs (or re-waits) inside this loop.
  for (auto h : waiters_) sim_.schedule_at(sim_.now(), h);
  waiters_.clear();
  for (auto& cb : callbacks_) sim_.call_at(sim_.now(), std::move(cb));
  callbacks_.clear();
}
// ppfs::endhot

void Event::on_set(SmallFn cb) {
  if (set_) {
    sim_.call_at(sim_.now(), std::move(cb));
  } else {
    callbacks_.push_back(std::move(cb));
  }
}

Task<bool> wait_with_timeout(Simulation& sim, Event& ev, SimTime dt) {
  if (ev.is_set()) co_return true;
  struct State {
    explicit State(Simulation& s) : either(s) {}
    Event either;
    bool timed_out = false;
  };
  auto state = std::make_shared<State>(sim);

  sim.call_at(sim.now() + dt, [state] {
    if (!state->either.is_set()) {
      state->timed_out = true;
      state->either.set();
    }
  });
  ev.on_set([state] {
    if (!state->either.is_set()) state->either.set();
  });

  co_await state->either.wait();
  co_return !state->timed_out;
}

void Barrier::release_all() {
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (auto h : waiters) sim_.schedule_at(sim_.now(), h);
}

}  // namespace ppfs::sim
