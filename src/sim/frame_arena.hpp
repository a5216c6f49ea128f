// FrameArena: pooled allocation for coroutine frames.
//
// Every simulation process is a coroutine, and a sweep dispatches millions
// of short-lived child coroutines (one per read call, per RPC, per disk
// op). Each frame used to round-trip through the global allocator; the
// arena recycles them through size-class free lists instead, so steady-
// state frame allocation is a vector pop.
//
// The arena is thread-local: a Simulation never migrates between threads
// (the SweepRunner gives each worker its own simulations), so free lists
// need no locks, and frames allocated on a worker are freed on the same
// worker. Multiple simulations run consecutively on one thread share the
// arena — reuse across runs is exactly the point.
//
// Each block carries a 16-byte header (FrameHeader) in front of the frame:
// its size class, so both the sized and unsized operator delete forms
// work, a tag that marks the block as the arena's, and the SimCheck
// auditor's per-frame ledger (sim/check/audit.hpp). The default new
// alignment (16 on x86-64) is preserved for the frame that follows it.
// Free lists are not capped: a block goes back to the system only at
// trim(), which the thread_local arena runs at thread exit (so
// LeakSanitizer sees a clean shutdown). Until then a dead frame's header
// stays readable, which is what lets the auditor catch a handle scheduled
// after its frame died. The price is that the arena holds the thread's
// high-water of live frames until the thread exits.
//
// Under AddressSanitizer a free block's bytes after its header are
// poisoned, and unpoisoned when the block is handed out again, so a stray
// access into a dead frame is still reported although the block never
// returns to the heap.
//
// Task<T> promises (and the spawn() wrapper's promise) opt in by
// inheriting PooledFrame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppfs::sim {

/// The bytes in front of every arena block's payload.
struct FrameHeader {
  std::uint32_t block_bytes;  // size class, header included
  std::uint32_t tag;          // FrameArena::kTag on every arena block
  // SimCheck ledger (sim/check/audit.hpp), meaningful for Task frames only:
  std::uint32_t queued;     // live event-queue entries holding the frame
  std::uint32_t destroyed;  // nonzero once the frame's owner destroyed it
};

class FrameArena {
 public:
  static constexpr std::size_t kHeaderSize = 16;
  static constexpr std::uint32_t kTag = 0x46524d41;  // "FRMA"

  struct Stats {
    std::uint64_t allocs = 0;           // frame allocations served
    std::uint64_t pool_hits = 0;        // ... of which came from a free list
    std::uint64_t live = 0;             // frames currently outstanding
    std::uint64_t live_bytes = 0;       // their block bytes, headers included
    std::uint64_t peak_live_bytes = 0;  // high-water of live_bytes since reset_peak()
    std::uint64_t cached_blocks = 0;    // blocks parked on free lists
    std::uint64_t cached_bytes = 0;
    std::uint64_t trims = 0;  // blocks released to the system by trim()
  };

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena() { trim(); }

  /// The calling thread's arena.
  static FrameArena& local() noexcept;

  void* allocate(std::size_t bytes);
  void deallocate(void* p) noexcept;

  /// The header in front of a pointer allocate() returned. Its block stays
  /// arena memory until trim(), so this is valid for dead frames too.
  static FrameHeader& header_of(const void* p) noexcept {
    return *reinterpret_cast<FrameHeader*>(
        const_cast<char*>(static_cast<const char*>(p)) - kHeaderSize);
  }

  const Stats& stats() const noexcept { return stats_; }

  /// Restart the live-bytes high-water at the current live bytes, and
  /// return them. A driver calls this when it starts, so the peak it later
  /// reads is its own run's, whatever ran on the thread before.
  std::uint64_t reset_peak() noexcept {
    stats_.peak_live_bytes = stats_.live_bytes;
    return stats_.live_bytes;
  }

  /// Release every cached block to the system (free lists stay usable).
  void trim() noexcept;

 private:
  // Size classes are multiples of 64 bytes: coarse enough that a program's
  // handful of distinct frame sizes share lists, fine enough to waste
  // little. The 16-byte header is included in the class size.
  static constexpr std::size_t kGranularity = 64;
  static_assert(sizeof(FrameHeader) == kHeaderSize);

  struct Bucket {
    std::size_t bytes = 0;  // full block size, header included
    std::vector<void*> free;
  };

  Bucket& bucket_for(std::size_t block_bytes);

  std::vector<Bucket> buckets_;
  Stats stats_;
};

/// Mixin: a coroutine promise inheriting this has its frame served by the
/// calling thread's FrameArena.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FrameArena::local().allocate(n); }
  static void operator delete(void* p) noexcept { FrameArena::local().deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FrameArena::local().deallocate(p);
  }
};

}  // namespace ppfs::sim
