#include "sim/check/audit.hpp"

#include <coroutine>
#include <exception>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace ppfs::sim::check {

namespace {

// The injections' frame: every resume runs the loop to its next suspension.
Task<void> suspend_forever() {
  for (;;) co_await std::suspend_always{};
}

// splitmix64: turns an arbitrary seed into a well-mixed trigger point so
// injection tests exercise different interleavings per seed.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(Violation v) noexcept {
  switch (v) {
    case Violation::kCausality: return "causality";
    case Violation::kDoubleResume: return "double-resume";
    case Violation::kResumeAfterDestroy: return "resume-after-destroy";
    case Violation::kResourceAccounting: return "resource-accounting";
    case Violation::kBufferConservation: return "buffer-conservation";
    case Violation::kFaultConservation: return "fault-conservation";
    case Violation::kCoalesceConservation: return "coalesce-conservation";
    case Violation::kCacheBitmapConservation: return "cache-bitmap-conservation";
    case Violation::kTokenConservation: return "token-conservation";
  }
  return "unknown";
}

AuditError::AuditError(const ViolationRecord& rec)
    : std::logic_error("SimCheck violation [" + std::string(to_string(rec.kind)) +
                       "] at t=" + std::to_string(rec.when) + ": " + rec.detail),
      kind_(rec.kind) {}

Auditor::~Auditor() {
  if (injection_frame_) {
    note_frame_destroyed(injection_frame_.address());
    injection_frame_.destroy();
  }
}

void Auditor::report(SimTime now, Violation kind, std::string detail, bool may_throw) {
  violations_.push_back(ViolationRecord{kind, now, std::move(detail)});
  if (fail_fast_ && may_throw && std::uncaught_exceptions() == 0) {
    throw AuditError(violations_.back());
  }
}

std::size_t Auditor::count(Violation kind) const noexcept {
  std::size_t n = 0;
  for (const auto& v : violations_) {
    if (v.kind == kind) ++n;
  }
  return n;
}

// --- kernel hooks -----------------------------------------------------------

void Auditor::on_schedule(SimTime now, SimTime t, const void* frame) {
  tick_injection(now);
  // Check first, count after: a fail-fast report throws out of schedule_at
  // before the kernel queues the event, and an event that was never queued
  // must not count as pending.
  FrameHeader* header = frame != nullptr ? &frame_header(frame) : nullptr;
  if (header != nullptr && header->queued > 0) {
    report(now, Violation::kDoubleResume,
           "coroutine frame scheduled while already pending in the event queue");
  }
  if (t < now) {
    report(now, Violation::kCausality,
           "event scheduled at t=" + std::to_string(t) + " < now=" + std::to_string(now));
  }
  if (header != nullptr) ++header->queued;
}

bool Auditor::on_dispatch(SimTime now, const void* frame) {
  tick_injection(now);
  if (!frame) return true;
  FrameHeader& header = frame_header(frame);
  if (header.queued > 0) --header.queued;
  // Clearing the stain here, as well as when a new Task frame takes the
  // block, leaves the injection frame usable after its staged violation.
  if (header.destroyed != 0) {
    header.destroyed = 0;
    report(now, Violation::kResumeAfterDestroy,
           "dispatching a coroutine frame that was destroyed while queued");
    return false;
  }
  return true;
}

// --- Resource accounting ----------------------------------------------------

void Auditor::on_resource_acquire(SimTime now, ResourceLedger& ledger, std::size_t units) {
  tick_injection(now);
  ledger.outstanding_ += static_cast<std::int64_t>(units);
}

void Auditor::on_resource_release(SimTime now, ResourceLedger& ledger, std::size_t units) {
  ledger.outstanding_ -= static_cast<std::int64_t>(units);
  if (ledger.outstanding_ < 0) {
    ledger.outstanding_ = 0;
    report(now, Violation::kResourceAccounting,
           "release of " + std::to_string(units) + " unit(s) exceeds outstanding acquisitions");
  }
}

void Auditor::on_resource_destroyed(const ResourceLedger& ledger) noexcept {
  if (ledger.outstanding_ != 0) {
    report(sim_.now(), Violation::kResourceAccounting,
           std::to_string(ledger.outstanding_) +
               " unit(s) still acquired when Resource was destroyed",
           /*may_throw=*/false);
  }
}

std::int64_t Auditor::resource_outstanding(const Resource* res) const noexcept {
  return res->audit_ledger().outstanding();
}

// --- PrefetchBuffer conservation --------------------------------------------

void Auditor::on_buffer_allocated(const void* owner, std::uint64_t n) {
  buffers_[owner].allocated += n;
}

void Auditor::on_buffer_consumed(const void* owner, std::uint64_t n) {
  auto& l = buffers_[owner];
  l.consumed += n;
  if (l.disposed() > l.allocated) {
    report(sim_.now(), Violation::kBufferConservation,
           "buffer consumed that was never accounted as allocated");
  }
}

void Auditor::on_buffer_discarded(const void* owner, std::uint64_t n) {
  auto& l = buffers_[owner];
  l.discarded += n;
  if (l.disposed() > l.allocated) {
    report(sim_.now(), Violation::kBufferConservation,
           "buffer discarded that was never accounted as allocated");
  }
}

void Auditor::on_buffer_freed_at_close(const void* owner, std::uint64_t n) {
  auto& l = buffers_[owner];
  l.freed_at_close += n;
  if (l.disposed() > l.allocated) {
    report(sim_.now(), Violation::kBufferConservation,
           "buffer freed at close that was never accounted as allocated");
  }
}

void Auditor::check_buffer_conservation(SimTime now, const void* owner, bool in_destructor) {
  auto it = buffers_.find(owner);
  if (it == buffers_.end()) return;
  const BufferLedger l = it->second;
  if (in_destructor) buffers_.erase(it);
  if (l.allocated != l.disposed()) {
    report(now, Violation::kBufferConservation,
           "allocated=" + std::to_string(l.allocated) + " != consumed=" +
               std::to_string(l.consumed) + " + discarded=" + std::to_string(l.discarded) +
               " + freed-at-close=" + std::to_string(l.freed_at_close),
           /*may_throw=*/!in_destructor);
  }
}

// --- fault conservation -----------------------------------------------------

void Auditor::on_fault_retried_ok(std::uint64_t n) {
  faults_.retried_ok += n;
  if (faults_.resolved() > faults_.observed) {
    report(sim_.now(), Violation::kFaultConservation,
           "fault resolved as retried-ok that was never observed");
  }
}

void Auditor::on_fault_reconstructed(std::uint64_t n) {
  faults_.reconstructed += n;
  if (faults_.resolved() > faults_.observed) {
    report(sim_.now(), Violation::kFaultConservation,
           "fault resolved as reconstructed that was never observed");
  }
}

void Auditor::on_fault_terminal(std::uint64_t n) {
  faults_.terminal += n;
  if (faults_.resolved() > faults_.observed) {
    report(sim_.now(), Violation::kFaultConservation,
           "fault resolved as terminal that was never observed");
  }
}

void Auditor::check_fault_conservation(SimTime now, bool in_destructor) {
  const FaultLedger l = faults_;
  if (l.observed != l.resolved()) {
    report(now, Violation::kFaultConservation,
           "observed=" + std::to_string(l.observed) + " != retried-ok=" +
               std::to_string(l.retried_ok) + " + reconstructed=" +
               std::to_string(l.reconstructed) + " + terminal=" + std::to_string(l.terminal),
           /*may_throw=*/!in_destructor);
  }
}

// --- cache-tier bitmap conservation -----------------------------------------

void Auditor::on_cache_bit_set(const void* owner, std::uint64_t n) {
  cache_bits_[owner].set += n;
}

void Auditor::on_cache_bit_cleared(const void* owner, std::uint64_t n) {
  auto& l = cache_bits_[owner];
  l.cleared += n;
  if (l.cleared > l.set) {
    report(sim_.now(), Violation::kCacheBitmapConservation,
           "cache bit cleared that was never accounted as set");
  }
}

void Auditor::check_cache_bitmap_conservation(SimTime now, const void* owner,
                                              std::uint64_t resident, bool in_destructor) {
  auto it = cache_bits_.find(owner);
  if (it == cache_bits_.end()) {
    if (resident != 0) {
      report(now, Violation::kCacheBitmapConservation,
             std::to_string(resident) + " resident bit(s) on a tier with no ledger",
             /*may_throw=*/!in_destructor);
    }
    return;
  }
  const CacheLedger l = it->second;
  if (in_destructor) cache_bits_.erase(it);
  if (l.set != l.cleared + resident) {
    report(now, Violation::kCacheBitmapConservation,
           "set=" + std::to_string(l.set) + " != cleared=" + std::to_string(l.cleared) +
               " + resident=" + std::to_string(resident),
           /*may_throw=*/!in_destructor);
  }
}

// --- byte-range write-token conservation ------------------------------------

void Auditor::on_token_write_grant(SimTime now, std::uint64_t file, std::uint64_t owner,
                                   std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  auto& recs = token_grants_[file];
  for (const TokenGrantRec& r : recs) {
    if (r.begin < end && begin < r.end && r.owner != owner) {
      report(now, Violation::kTokenConservation,
             "write token [" + std::to_string(begin) + "," + std::to_string(end) +
                 ") granted to client " + std::to_string(owner) + " overlaps [" +
                 std::to_string(r.begin) + "," + std::to_string(r.end) +
                 ") still held by client " + std::to_string(r.owner) + " on file " +
                 std::to_string(file));
      return;
    }
  }
  recs.push_back(TokenGrantRec{owner, begin, end});
  token_granted_bytes_ += end - begin;
}

void Auditor::on_token_write_release(SimTime now, std::uint64_t file, std::uint64_t owner,
                                     std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  auto it = token_grants_.find(file);
  std::uint64_t removed = 0;
  if (it != token_grants_.end()) {
    auto& recs = it->second;
    std::vector<TokenGrantRec> splits;
    for (std::size_t i = 0; i < recs.size();) {
      TokenGrantRec& r = recs[i];
      if (r.owner != owner || r.end <= begin || r.begin >= end) {
        ++i;
        continue;
      }
      const std::uint64_t ob = r.begin > begin ? r.begin : begin;
      const std::uint64_t oe = r.end < end ? r.end : end;
      removed += oe - ob;
      // Keep the non-overlapping remainders of the grant record.
      if (ob > r.begin && oe < r.end) {
        splits.push_back(TokenGrantRec{owner, oe, r.end});
        r.end = ob;
        ++i;
      } else if (ob > r.begin) {
        r.end = ob;
        ++i;
      } else if (oe < r.end) {
        r.begin = oe;
        ++i;
      } else {
        recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    for (TokenGrantRec& s : splits) recs.push_back(s);
  }
  token_granted_bytes_ -= removed;
  if (removed != end - begin) {
    report(now, Violation::kTokenConservation,
           "release of write token [" + std::to_string(begin) + "," + std::to_string(end) +
               ") by client " + std::to_string(owner) + " covers " + std::to_string(removed) +
               " granted byte(s), expected " + std::to_string(end - begin));
  }
}

void Auditor::check_token_flush(SimTime now, std::uint64_t unflushed) {
  if (unflushed != 0) {
    report(now, Violation::kTokenConservation,
           "revoked write token acked with " + std::to_string(unflushed) +
               " dirty byte(s) unflushed");
  }
}

void Auditor::check_token_conservation(SimTime now, std::uint64_t outstanding_write_bytes,
                                       bool in_destructor) {
  if (token_granted_bytes_ != outstanding_write_bytes) {
    report(now, Violation::kTokenConservation,
           "ledger holds " + std::to_string(token_granted_bytes_) +
               " granted write byte(s) != manager outstanding " +
               std::to_string(outstanding_write_bytes),
           /*may_throw=*/!in_destructor);
  }
}

// --- coalesced-RPC conservation ---------------------------------------------

void Auditor::check_coalesce_conservation(SimTime now, ByteCount expected,
                                          ByteCount delivered) {
  if (expected != delivered) {
    report(now, Violation::kCoalesceConservation,
           "coalesced RPC delivered " + std::to_string(delivered) +
               " byte(s), expected the union of its extents = " +
               std::to_string(expected));
  }
}

// --- seeded injection -------------------------------------------------------

void Auditor::arm_injection(Violation kind, std::uint64_t seed) {
  injection_armed_ = true;
  injection_kind_ = kind;
  injection_countdown_ = 1 + splitmix64(seed) % 16;
}

void Auditor::tick_injection(SimTime now) {
  if (!injection_armed_ || injecting_) return;
  if (--injection_countdown_ > 0) return;
  injection_armed_ = false;
  injecting_ = true;
  fire_injection(now);
  injecting_ = false;
}

std::coroutine_handle<> Auditor::injection_frame() {
  if (!injection_frame_) injection_frame_ = suspend_forever().release();
  return injection_frame_;
}

void Auditor::fire_injection(SimTime now) {
  switch (injection_kind_) {
    case Violation::kCausality:
      // A real stale-time schedule through the kernel's public surface.
      sim_.call_at(now - 1.0, [] {});
      break;
    case Violation::kDoubleResume:
      // The injection frame tolerates any number of resumes, so the
      // injected double-schedule travels the real queue without risking UB.
      sim_.schedule_at(now, injection_frame());
      sim_.schedule_at(now, injection_frame());
      break;
    case Violation::kResumeAfterDestroy:
      // Stained, not destroyed: a freed block could be taken by a new
      // frame before the dispatch, which would clear the stain.
      sim_.schedule_at(now, injection_frame());
      note_frame_destroyed(injection_frame_.address());
      break;
    case Violation::kResourceAccounting:
      on_resource_release(now, injected_ledger_, 1);  // release with nothing acquired
      break;
    case Violation::kBufferConservation:
      on_buffer_allocated(this, 1);  // allocated, never disposed
      check_buffer_conservation(now, this);
      break;
    case Violation::kFaultConservation:
      on_fault_observed(1);  // observed, never resolved
      check_fault_conservation(now);
      break;
    case Violation::kCoalesceConservation:
      // A scatter that dropped one byte of its merged ranges.
      check_coalesce_conservation(now, /*expected=*/1, /*delivered=*/0);
      break;
    case Violation::kCacheBitmapConservation:
      on_cache_bit_set(this, 1);  // set, never cleared, not resident
      check_cache_bitmap_conservation(now, this, /*resident=*/0);
      break;
    case Violation::kTokenConservation:
      // Two clients granted overlapping write tokens on the same file — the
      // exact double-writer hazard the protocol exists to prevent.
      on_token_write_grant(now, /*file=*/1, /*owner=*/1, 0, 4096);
      on_token_write_grant(now, /*file=*/1, /*owner=*/2, 1024, 2048);
      break;
  }
}

}  // namespace ppfs::sim::check
