// AdaptiveController — windowed hit-rate feedback that scales per-fd
// readahead depth, replacing the prototype's fixed one-block-ahead rule.
//
// State machine per fd (documented in DESIGN.md §12):
//
//          3/4 window hits, no waste          3/4 window hits, no waste
//   depth=1 ───────────────────────▶ depth=2 ───────────────────────▶ ... max
//      ▲  ◀─────────────────────────   │  ◀──────────────────────────
//      │     <1/2 window hits (halve)  │
//      └── miss storm (N consecutive misses) or fault pause: collapse to 1
//
// Feedback events come from the engine's serve path: a prefetch hit
// (ready or in-flight) counts for the window, a miss counts against it,
// and wasted buffers (stale discards, cap evictions) veto ramp-up for the
// window they land in. Every `window` reads the controller re-evaluates:
// mostly-hits-and-no-waste doubles depth (up to max_depth, itself bounded
// by the engine's buffer cap so occupancy can't run away), a losing
// window halves it. A run of consecutive misses collapses straight to
// min_depth without waiting for the window — the pattern broke, stop
// speculating at depth. A fault pause collapses every fd the same way so
// recovery traffic never competes with deep readahead.
//
// Determinism: pure integer state driven by the read stream; `seed` only
// phases the first evaluation window. Identical streams give identical
// depth trajectories on any --jobs split.
#pragma once

#include <cstdint>

#include "sim/flat_map.hpp"

namespace ppfs::prefetch {

struct ControllerParams {
  std::size_t min_depth = 1;
  std::size_t max_depth = 8;
  /// Reads per feedback window (evaluation cadence).
  std::size_t window = 4;
  /// Consecutive misses that collapse depth to min_depth immediately.
  std::size_t miss_storm = 4;
  /// Phases the first window: the fd starts `seed % window` reads into it.
  std::uint64_t seed = 1;
};

struct ControllerCounters {
  std::uint64_t ramp_ups = 0;
  std::uint64_t ramp_downs = 0;
  std::uint64_t collapses = 0;  // miss-storm or fault collapses to min
};

class AdaptiveController {
 public:
  explicit AdaptiveController(ControllerParams p);

  void on_open(int fd);
  void on_close(int fd);

  // ppfs::hot — per-read decision path: map probe + integer window math
  /// Depth the engine should prefetch to after this fd's current read.
  std::size_t depth(int fd) const {
    const State* s = fds_.find(fd);
    return s ? s->depth : p_.min_depth;
  }
  /// A read was served from a prefetch buffer (ready or in-flight).
  void on_hit(int fd);
  /// A read found no usable prefetch buffer.
  void on_miss(int fd);
  // ppfs::endhot

  /// `n` prefetched buffers proved useless (stale discard / cap eviction).
  void on_wasted(int fd, std::uint64_t n);
  /// Fault gate tripped for this fd: collapse and restart its window.
  void on_fault(int fd);

  const ControllerParams& params() const noexcept { return p_; }
  const ControllerCounters& counters() const noexcept { return counters_; }

 private:
  struct State {
    std::uint32_t depth = 1;
    std::uint32_t win_reads = 0;
    std::uint32_t win_hits = 0;
    std::uint32_t win_wasted = 0;
    std::uint32_t consec_miss = 0;
    /// Reads left in the current window; the seed shortens only the first
    /// window (phase shift), later windows run the full length.
    std::uint32_t win_target = 0;
  };

  State& state(int fd);
  void account_read(State& s, bool hit);
  void evaluate(State& s);
  void collapse(State& s);

  ControllerParams p_;
  ControllerCounters counters_;
  sim::FlatMap<int, State> fds_;
};

}  // namespace ppfs::prefetch
