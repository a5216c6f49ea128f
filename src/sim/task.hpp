// Coroutine task type for simulation processes.
//
// Task<T> is a lazily-started coroutine: creating one does not run any code;
// it runs when first awaited (symmetric transfer from the awaiting
// coroutine) or when handed to Simulation::spawn(). On completion it resumes
// its awaiter. Exceptions propagate to the awaiter through await_resume().
//
// Ownership: the Task object owns the coroutine frame and destroys it in the
// destructor. When a Task is co_awaited, the temporary Task lives for the
// whole await expression, so the frame outlives its own completion.
//
// Under PPFS_SIMCHECK builds, frame creation and destruction are noted in
// the frame's FrameArena block header (sim/check/audit.hpp) so the kernel
// can refuse to resume a frame whose owning Task already destroyed it —
// converting a use-after-free into a diagnosed AuditError.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_arena.hpp"

#if defined(PPFS_SIMCHECK)
#include "sim/check/audit.hpp"
#endif

namespace ppfs::sim {

namespace detail {

inline void simcheck_frame_created([[maybe_unused]] void* frame) noexcept {
#if defined(PPFS_SIMCHECK)
  check::note_frame_created(frame);
#endif
}

inline void simcheck_frame_destroyed([[maybe_unused]] void* frame) noexcept {
#if defined(PPFS_SIMCHECK)
  check::note_frame_destroyed(frame);
#endif
}

}  // namespace detail

template <typename T>
class Task;

namespace detail {

// Frames come from the thread-local FrameArena (PooledFrame): a sweep
// spawns millions of short-lived child coroutines, and recycling their
// frames keeps the hot path out of the global allocator.
struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

/// A simulation process returning T. Move-only.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return h_ && h_.done(); }

  // Awaiter interface: co_await task starts it and suspends the awaiter
  // until the task completes.
  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
    h_.promise().continuation = awaiting;
    return h_;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
    return std::move(*p.value);
  }

  /// Release ownership of the coroutine handle (used by Simulation::spawn).
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(h_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {
    if (h_) detail::simcheck_frame_created(h_.address());
  }
  friend struct promise_type;

  void destroy() {
    if (h_) {
      detail::simcheck_frame_destroyed(h_.address());
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return h_ && h_.done(); }

  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
    h_.promise().continuation = awaiting;
    return h_;
  }
  void await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
  }

  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(h_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {
    if (h_) detail::simcheck_frame_created(h_.address());
  }
  friend struct promise_type;

  void destroy() {
    if (h_) {
      detail::simcheck_frame_destroyed(h_.address());
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_;
};

}  // namespace ppfs::sim
