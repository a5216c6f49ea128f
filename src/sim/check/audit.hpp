// SimCheck — the invariant auditor for the DES kernel.
//
// The simulator's results are only as trustworthy as the invariants the
// kernel actually enforces. The Auditor watches four bug classes that
// corrupt results silently instead of crashing:
//
//  * causality      — an event scheduled at t < now() would execute in the
//                     past; the kernel's silent clamp hides a model bug.
//  * double resume  — the same coroutine frame scheduled twice without an
//                     intervening resume; resuming a running/suspended frame
//                     twice is undefined behavior.
//  * resume after destroy — a frame destroyed (its owning Task died) while
//                     still sitting in the event queue; SimCheck detects it
//                     at dispatch and suppresses the resume instead of
//                     executing freed memory.
//  * resource accounting — double-entry bookkeeping of Resource
//                     acquire/release: releases that exceed acquisitions and
//                     units still outstanding when a Resource dies. Each
//                     Resource carries its own ledger (ResourceLedger).
//  * buffer conservation — every PrefetchBuffer allocated must end in
//                     exactly one terminal state: consumed by a read,
//                     discarded as stale/evicted, or freed at file close.
//  * fault conservation — every fault that manifests to a handler must end
//                     in exactly one terminal state: healed by retry,
//                     repaired by parity reconstruction, or surfaced as a
//                     terminal error in stats. No silently swallowed faults.
//
// The auditor is compile-time selectable (PPFS_SIMCHECK, default ON; see the
// top-level CMakeLists). When enabled, every Simulation owns one and checks
// are always live; a violation throws AuditError (fail-fast) or is recorded
// for later inspection (set_fail_fast(false)). Destructor-context checks
// only record — throwing there would terminate.
//
// The auditor itself is testable: arm_injection(kind, seed) commits a real
// violation of that class at a seed-chosen future point, through the same
// kernel paths real bugs would take, so tests can prove each class is
// caught (and that the trigger point follows the seed).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/frame_arena.hpp"
#include "sim/types.hpp"

namespace ppfs::sim {
class Resource;
class Simulation;
}

namespace ppfs::sim::check {

enum class Violation : std::uint8_t {
  kCausality,           // schedule_at / call_at with t < now
  kDoubleResume,        // frame scheduled twice while already pending
  kResumeAfterDestroy,  // dispatching a frame whose owner destroyed it
  kResourceAccounting,  // release > acquired, or units leaked at ~Resource
  kBufferConservation,  // allocated != consumed + discarded + freed-at-close
  kFaultConservation,   // observed != retried-ok + reconstructed + terminal
  kCoalesceConservation,  // coalesced RPC delivered != the union of its extents
  kCacheBitmapConservation,  // tier bits set != cleared + currently resident
  kTokenConservation,  // overlapping write tokens, or a revoked token not fully flushed
};

const char* to_string(Violation v) noexcept;

struct ViolationRecord {
  Violation kind;
  SimTime when = 0;
  std::string detail;
};

class AuditError : public std::logic_error {
 public:
  explicit AuditError(const ViolationRecord& rec);
  Violation kind() const noexcept { return kind_; }

 private:
  Violation kind_;
};

// --- coroutine-frame ledger ------------------------------------------------
//
// SimCheck's per-frame state lives in the FrameArena block header in front
// of each frame (sim/frame_arena.hpp): how many event-queue entries hold
// the frame, and whether its owning Task destroyed it. Task<T> reports
// frame creation and destruction here (see sim/task.hpp), and the
// Auditor's schedule and dispatch hooks read and write the same header, so
// no hook probes a table or allocates. The header belongs to the frame,
// not to a Simulation, which suits frames that outlive or predate any
// particular Simulation.
//
// Only arena frames may be scheduled in a SimCheck build: a handle's
// address must be the pointer PooledFrame::operator new returned, which
// GCC makes it for every frame. The header's tag guards that assumption
// in debug builds. A dead frame's block stays in the arena (free lists are
// uncapped), so a handle scheduled after its frame died (say, one left in
// an Event's waiter list) is still caught at dispatch. The stain clears
// when a new Task frame lands in the block.
inline FrameHeader& frame_header(const void* frame) noexcept {
  FrameHeader& header = FrameArena::header_of(frame);
  assert(header.tag == FrameArena::kTag && "SimCheck: handle is not a FrameArena frame");
  return header;
}

inline void note_frame_created(void* frame) noexcept {
  FrameHeader& header = frame_header(frame);
  header.queued = 0;
  header.destroyed = 0;
}

inline void note_frame_destroyed(void* frame) noexcept { frame_header(frame).destroyed = 1; }

inline bool frame_destroyed(const void* frame) noexcept {
  return frame_header(frame).destroyed != 0;
}

/// A queue entry holding `frame` was dropped undispatched (teardown).
inline void note_frame_dequeued(const void* frame) noexcept {
  std::uint32_t& queued = frame_header(frame).queued;
  if (queued > 0) --queued;
}

// --- per-Resource double-entry ledger --------------------------------------
//
// Units a Resource has granted and not yet had back, as the auditor counts
// them. It lives inside sim::Resource, beside but apart from the
// semaphore's own in_use count, so the acquire/release hooks update a field
// instead of hashing the resource's address. Only the Auditor writes it.
class ResourceLedger {
 public:
  std::int64_t outstanding() const noexcept { return outstanding_; }

 private:
  friend class Auditor;
  std::int64_t outstanding_ = 0;
};

class Auditor {
 public:
  explicit Auditor(Simulation& sim) : sim_(sim) {}
  ~Auditor();
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Throw AuditError at the violation site (default) instead of only
  /// recording. Destructor-context checks always only record.
  void set_fail_fast(bool v) noexcept { fail_fast_ = v; }

  // --- kernel hooks (called by Simulation) ---
  /// frame == nullptr for plain callbacks.
  void on_schedule(SimTime now, SimTime t, const void* frame);
  /// Returns false if the resume must be suppressed (frame was destroyed).
  [[nodiscard]] bool on_dispatch(SimTime now, const void* frame);

  // --- Resource double-entry accounting (on the Resource's own ledger) ---
  void on_resource_acquire(SimTime now, ResourceLedger& ledger, std::size_t units);
  void on_resource_release(SimTime now, ResourceLedger& ledger, std::size_t units);
  /// Destructor context: records a nonzero ledger as a leak, never throws.
  void on_resource_destroyed(const ResourceLedger& ledger) noexcept;
  /// Units acquired but not yet released on `res`.
  std::int64_t resource_outstanding(const Resource* res) const noexcept;

  // --- PrefetchBuffer conservation (per owning engine) ---
  void on_buffer_allocated(const void* owner, std::uint64_t n = 1);
  void on_buffer_consumed(const void* owner, std::uint64_t n = 1);
  void on_buffer_discarded(const void* owner, std::uint64_t n = 1);
  void on_buffer_freed_at_close(const void* owner, std::uint64_t n = 1);
  /// Verify allocated == consumed + discarded + freed for this owner. Call
  /// when the owner has no resident buffers (e.g. after the last close).
  void check_buffer_conservation(SimTime now, const void* owner, bool in_destructor = false);

  // --- fault conservation (run-wide ledger) ---
  //
  // Observation happens once per manifested fault, at its ultimate handler:
  // the client RPC envelope (per caught attempt failure), the RAID array
  // (per reconstructed read, observed and resolved atomically), or a
  // best-effort consumer that absorbs the error (e.g. server readahead).
  // Lower layers that merely throw do not observe — the error is still in
  // flight to whoever deals with it.
  struct FaultLedger {
    std::uint64_t observed = 0;
    std::uint64_t retried_ok = 0;
    std::uint64_t reconstructed = 0;
    std::uint64_t terminal = 0;
    std::uint64_t resolved() const { return retried_ok + reconstructed + terminal; }
  };
  void on_fault_observed(std::uint64_t n = 1) { faults_.observed += n; }
  void on_fault_retried_ok(std::uint64_t n = 1);
  void on_fault_reconstructed(std::uint64_t n = 1);
  void on_fault_terminal(std::uint64_t n = 1);
  /// Verify observed == retried-ok + reconstructed + terminal. Call when no
  /// requests are in flight (end of run / teardown).
  void check_fault_conservation(SimTime now, bool in_destructor = false);

  // --- cache-tier bitmap conservation (per owning tier) ---
  //
  // Every residency bit a second-tier cache sets must be accounted for:
  // either it was cleared again (eviction, crash loss, fsck repair) or it is
  // still resident. `set` counts both fresh inserts and journal-recovered
  // bits; a recovered bit is a new volatile set (the crash cleared the old
  // one), so the ledger balances across crash/restart epochs.
  void on_cache_bit_set(const void* owner, std::uint64_t n = 1);
  void on_cache_bit_cleared(const void* owner, std::uint64_t n = 1);
  /// Verify set == cleared + resident for this tier. Call when the tier is
  /// quiescent (end of run, or its destructor).
  void check_cache_bitmap_conservation(SimTime now, const void* owner,
                                       std::uint64_t resident, bool in_destructor = false);

  // --- byte-range write-token conservation ---
  //
  // The TokenWrite protocol's safety net: every byte of every file is
  // covered by AT MOST one client's write token at any instant, and a
  // revoked token may only be acked after every dirty byte it covered has
  // been flushed. The token manager reports grants/releases as it mutates
  // its grant table; the client reports its residual dirty bytes at each
  // revocation ack. A mismatch in either direction is a coherence bug that
  // would silently corrupt data in a real system.
  void on_token_write_grant(SimTime now, std::uint64_t file, std::uint64_t owner,
                            std::uint64_t begin, std::uint64_t end);
  void on_token_write_release(SimTime now, std::uint64_t file, std::uint64_t owner,
                              std::uint64_t begin, std::uint64_t end);
  /// Revocation ack: `unflushed` dirty bytes still buffered inside the
  /// revoked range (must be 0 — flush-before-ack).
  void check_token_flush(SimTime now, std::uint64_t unflushed);
  /// End-of-run balance: the ledger's total granted write bytes must equal
  /// what the token manager says is still outstanding.
  void check_token_conservation(SimTime now, std::uint64_t outstanding_write_bytes,
                                bool in_destructor = false);

  // --- coalesced-RPC conservation ---
  //
  // A scatter-gather RPC must deliver exactly the union of its merged block
  // ranges, once. The client calls this after the final successful attempt
  // scatters its data: `expected` is what the servers reported moved,
  // `delivered` is what actually landed in the user buffer. Retries cannot
  // double-count because delivery is only tallied on the surviving attempt.
  void check_coalesce_conservation(SimTime now, ByteCount expected, ByteCount delivered);

  // --- seeded violation injection ---
  /// Arm a deliberate violation of `kind`, committed through the real
  /// kernel/accounting paths after a seed-derived number of audited events.
  void arm_injection(Violation kind, std::uint64_t seed);
  bool injection_armed() const noexcept { return injection_armed_; }

  // --- results ---
  const std::vector<ViolationRecord>& violations() const noexcept { return violations_; }
  std::size_t count(Violation kind) const noexcept;

 private:
  struct BufferLedger {
    std::uint64_t allocated = 0;
    std::uint64_t consumed = 0;
    std::uint64_t discarded = 0;
    std::uint64_t freed_at_close = 0;
    std::uint64_t disposed() const { return consumed + discarded + freed_at_close; }
  };

  struct CacheLedger {
    std::uint64_t set = 0;
    std::uint64_t cleared = 0;
  };

  struct TokenGrantRec {
    std::uint64_t owner;
    std::uint64_t begin;
    std::uint64_t end;
  };

  void report(SimTime now, Violation kind, std::string detail, bool may_throw = true);
  void tick_injection(SimTime now);
  void fire_injection(SimTime now);
  std::coroutine_handle<> injection_frame();

  Simulation& sim_;
  bool fail_fast_ = true;

  // The arena frame the kDoubleResume and kResumeAfterDestroy injections
  // schedule: it suspends forever, so it tolerates any number of resumes.
  std::coroutine_handle<> injection_frame_;
  ResourceLedger injected_ledger_;  // what the kResourceAccounting injection releases on
  // ppfs-lint: allow(det-unsafe-source) lookup/erase by key only, never iterated
  std::unordered_map<const void*, BufferLedger> buffers_;
  // ppfs-lint: allow(det-unsafe-source) lookup/erase by key only, never iterated
  std::unordered_map<const void*, CacheLedger> cache_bits_;
  // file -> currently granted write-token ranges (grant order preserved).
  // ppfs-lint: allow(det-unsafe-source) lookup by key only, never iterated
  std::unordered_map<std::uint64_t, std::vector<TokenGrantRec>> token_grants_;
  std::uint64_t token_granted_bytes_ = 0;  // running ledger total
  FaultLedger faults_;
  std::vector<ViolationRecord> violations_;

  bool injection_armed_ = false;
  bool injecting_ = false;
  Violation injection_kind_ = Violation::kCausality;
  std::uint64_t injection_countdown_ = 0;
};

}  // namespace ppfs::sim::check
