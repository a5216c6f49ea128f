#include "sim/simulation.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/frame_arena.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace ppfs::sim {

namespace {

// Fire-and-forget wrapper coroutine used by spawn(). It starts eagerly,
// immediately co_awaits the user task (driving it), and self-destroys on
// completion because final_suspend never suspends. The promise embeds the
// Simulation's intrusive RootNode so ~Simulation() / an aborted run can
// destroy processes that never completed (destroying the root cascades:
// the frame's Task parameter owns the child frame, and so on down).
struct Detached {
  struct promise_type : Simulation::RootNode, PooledFrame {
    Simulation* sim;

    // Promise constructor matching run_detached's parameters: binds the
    // owning Simulation before the coroutine body starts.
    promise_type(Simulation& s, std::size_t&, Task<void>&) noexcept : sim(&s) {}
    ~promise_type() { sim->note_root_finished(*this); }

    Detached get_return_object() {
      handle = std::coroutine_handle<promise_type>::from_promise(*this);
      sim->note_root_started(*this);
      return {};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }  // run_detached catches everything
  };
};

struct LiveGuard {
  std::size_t& count;
  explicit LiveGuard(std::size_t& c) : count(c) { ++count; }
  ~LiveGuard() { --count; }
};

Detached run_detached(Simulation& sim, std::size_t& live, Task<void> task) {
  LiveGuard guard(live);
  try {
    co_await std::move(task);
  } catch (...) {
    sim.report_process_error(std::current_exception());
  }
}

}  // namespace

Simulation::Simulation()
#if defined(PPFS_SIMCHECK)
    : auditor_(std::make_unique<check::Auditor>(*this))
#endif
{
  // Pre-size the queue past typical scenario high-water marks so short
  // runs never touch the allocator from the event loop.
  queue_.reserve(1024);
}

Simulation::~Simulation() {
  destroy_pending_processes();
#if defined(PPFS_SIMCHECK)
  // Assert-count the teardown: destroying every registered root must have
  // unwound every live process (LiveGuard lives in the root frame).
  assert(live_processes_ == 0 &&
         "SimCheck: pending-process teardown left live processes behind");
#endif
}

void Simulation::note_root_started(RootNode& node) noexcept {
  node.prev = nullptr;
  node.next = roots_;
  node.linked = true;
  if (roots_) roots_->prev = &node;
  roots_ = &node;
}

void Simulation::note_root_finished(RootNode& node) noexcept {
  if (!node.linked) return;
  node.linked = false;
  if (node.prev) {
    node.prev->next = node.next;
  } else {
    roots_ = node.next;
  }
  if (node.next) node.next->prev = node.prev;
  node.prev = node.next = nullptr;
}

std::size_t Simulation::destroy_pending_processes() {
  draining_ = true;
  std::size_t destroyed = 0;
  while (roots_) {
    // Destroying the root frame cascades through the Task ownership chain,
    // unwinding every frame of the process; ~promise_type unlinks it.
    roots_->handle.destroy();
    ++destroyed;
  }
  // Whatever was queued either belonged to a just-destroyed process (the
  // handle now dangles) or is an orphaned callback of an aborted run.
#if defined(PPFS_SIMCHECK)
  // Each queued handle is counted in its frame's arena header (a dead
  // frame's block stays in the arena). Dropping the entry drops the count,
  // so a frame that outlives this Simulation can be scheduled in another
  // without a false double-resume report.
  while (!queue_.empty()) {
    const EventQueue::Entry e = queue_.pop();
    if (e.h) check::note_frame_dequeued(e.h.address());
  }
#endif
  queue_.clear();
  draining_ = false;
  return destroyed;
}

void Simulation::schedule_at(SimTime t, std::coroutine_handle<> h) {
  assert(h);
  if (auto* a = auditor()) a->on_schedule(now_, t, h.address());
  queue_.push(t < now_ ? now_ : t, next_seq_++, h);
}

void Simulation::call_at(SimTime t, SmallFn fn) {
  if (auto* a = auditor()) a->on_schedule(now_, t, nullptr);
  queue_.push(t < now_ ? now_ : t, next_seq_++, std::move(fn));
}

void Simulation::spawn(Task<void> task) {
  if (!task.valid()) throw std::invalid_argument("Simulation::spawn: empty task");
  run_detached(*this, live_processes_, std::move(task));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  EventQueue::Entry item = queue_.pop();
  now_ = item.t;
  ++events_dispatched_;
  digest_.mix_double(item.t);
  digest_.mix_u64(item.h ? 1 : 2);
  digest_.mix_u64(item.seq);
  // Trace after the digest mix and before the auditor, so the kernel track
  // records exactly the dispatch stream the digest hashes: one instant per
  // dispatched event, even for resumptions the auditor later suppresses.
  if (trace_ != nullptr) {
    trace_->record(trace::TraceRecord(
        now_, trace::TraceKind::kInstant, trace::TraceTrack::kKernel,
        item.h ? trace::code::kDispatchCoroutine : trace::code::kDispatchCallback, 0, 0,
        item.seq));
  }
  if (item.h) {
    if (auto* a = auditor()) {
      if (!a->on_dispatch(now_, item.h.address())) return true;  // destroyed frame: suppress
    }
    item.h.resume();
  } else {
    if (auto* a = auditor()) (void)a->on_dispatch(now_, nullptr);
    item.fn();
  }
  return true;
}

std::size_t Simulation::run(SimTime until) {
  const auto rethrow_pending = [this] {
    if (!errors_.empty()) {
      auto e = errors_.front();
      errors_.clear();
      // Unwind every other still-pending process now, while the objects
      // their frames reference (machines, resources, clients) are still
      // alive — leaving them for ~Simulation() would leak the frames.
      destroy_pending_processes();
      std::rethrow_exception(e);
    }
  };
  // A spawned process may have failed eagerly, before any event exists.
  rethrow_pending();
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.top_time() <= until) {
    step();
    ++processed;
    rethrow_pending();
  }
  return processed;
}

void Simulation::report_process_error(std::exception_ptr e) { errors_.push_back(std::move(e)); }

}  // namespace ppfs::sim
