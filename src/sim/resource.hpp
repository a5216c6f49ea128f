// Resource: a counted, FIFO-fair semaphore for simulation processes.
//
// Models anything with finite service capacity: a disk channel, a SCSI bus,
// a mesh link, an I/O-node CPU. Processes co_await acquire(n); release(n)
// hands capacity to queued waiters strictly in arrival order (no overtaking
// even if a later, smaller request would fit — this models FIFO hardware
// queues and keeps results reproducible).
//
// acquire() returns a move-only guard; letting the guard go out of scope
// releases the units. Use guard.release() to release early.
//
// The waiter queue is a ring over a vector that doubles only when full: a
// Resource allocates nothing at construction (a mesh has thousands of link
// Resources), and nothing once its queue has reached its high-water.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace ppfs::sim {

class Resource;

/// RAII ownership of acquired resource units.
class [[nodiscard]] ResourceGuard {
 public:
  ResourceGuard() = default;
  ResourceGuard(Resource* res, std::size_t units) : res_(res), units_(units) {}
  ResourceGuard(ResourceGuard&& o) noexcept
      : res_(std::exchange(o.res_, nullptr)), units_(std::exchange(o.units_, 0)) {}
  ResourceGuard& operator=(ResourceGuard&& o) noexcept {
    if (this != &o) {
      release();
      res_ = std::exchange(o.res_, nullptr);
      units_ = std::exchange(o.units_, 0);
    }
    return *this;
  }
  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;
  ~ResourceGuard() { release(); }

  void release();
  bool owns() const noexcept { return res_ != nullptr; }

 private:
  Resource* res_ = nullptr;
  std::size_t units_ = 0;
};

class Resource {
 public:
  Resource(Simulation& sim, std::size_t capacity) : sim_(sim), capacity_(capacity) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  ~Resource() {
    // SimCheck: units still acquired when the resource dies are a leak
    // (some process holds a guard into freed hardware). Records only —
    // destructors must not throw.
    if (auto* a = sim_.auditor()) a->on_resource_destroyed(ledger_);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t available() const noexcept { return capacity_ - in_use_; }
  std::size_t queue_length() const noexcept { return waiting_; }
  /// SimCheck's double-entry count for this resource (written only by the
  /// auditor's hooks; stays 0 when SimCheck is compiled out).
  const check::ResourceLedger& audit_ledger() const noexcept { return ledger_; }

  // ppfs::hot — Resource acquire/grant: the waiter ring allocates only when
  // it grows past its high-water (grow_ring, below the region)

  /// Awaitable acquiring `units` capacity (must be <= capacity()).
  /// Resolves to a ResourceGuard.
  auto acquire(std::size_t units = 1) {
    assert(units > 0 && units <= capacity_);
    struct Awaiter {
      Resource& res;
      std::size_t units;
      bool await_ready() {
        if (res.waiting_ == 0 && res.in_use_ + units <= res.capacity_) {
          res.in_use_ += units;
          if (auto* a = res.sim_.auditor()) {
            a->on_resource_acquire(res.sim_.now(), res.ledger_, units);
          }
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { res.push_waiter(Waiter{units, h}); }
      ResourceGuard await_resume() noexcept { return ResourceGuard{&res, units}; }
    };
    return Awaiter{*this, units};
  }

  /// Return units to the pool and grant queued waiters (FIFO).
  void release(std::size_t units) {
    if (auto* a = sim_.auditor()) a->on_resource_release(sim_.now(), ledger_, units);
    assert(units <= in_use_);
    in_use_ -= units > in_use_ ? in_use_ : units;
    grant_waiters();
  }

  /// Cumulative busy time bookkeeping helpers for utilization stats.
  double utilization(SimTime horizon) const noexcept {
    return horizon > 0 ? busy_time_ / (horizon * static_cast<double>(capacity_)) : 0.0;
  }
  void note_busy(SimTime t) noexcept { busy_time_ += t; }

 private:
  struct Waiter {
    std::size_t units;
    std::coroutine_handle<> h;
  };

  void grant_waiters() {
    // During pending-process teardown a granted waiter would never run (and
    // so never release), which would break acquire/release accounting.
    if (sim_.draining()) return;
    // Grant order is push order: strictly FIFO, no overtaking.
    while (waiting_ != 0 && in_use_ + ring_[head_].units <= capacity_) {
      const Waiter w = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --waiting_;
      in_use_ += w.units;
      if (auto* a = sim_.auditor()) a->on_resource_acquire(sim_.now(), ledger_, w.units);
      sim_.schedule_at(sim_.now(), w.h);
    }
  }

  void push_waiter(Waiter w) {
    if (waiting_ == ring_.size()) grow_ring();
    ring_[(head_ + waiting_) & (ring_.size() - 1)] = w;
    ++waiting_;
  }
  // ppfs::endhot

  // Doubles the ring (sizes stay powers of two), oldest waiter first.
  void grow_ring() {
    std::vector<Waiter> bigger(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < waiting_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  Simulation& sim_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  double busy_time_ = 0.0;
  check::ResourceLedger ledger_;
  std::vector<Waiter> ring_;  // FIFO ring of waiters; size is 0 or a power of two
  std::size_t head_ = 0;      // ring_ index of the oldest waiter
  std::size_t waiting_ = 0;   // waiters in the ring
};

inline void ResourceGuard::release() {
  if (res_) {
    res_->release(units_);
    res_ = nullptr;
    units_ = 0;
  }
}

}  // namespace ppfs::sim
