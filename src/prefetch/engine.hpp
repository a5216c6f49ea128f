// PrefetchEngine — the paper's contribution, client-side system-level
// prefetching for the PFS.
//
// Behavior reproduced from Section 3 of the paper:
//  * a prefetch is issued "following any read request", as an asynchronous
//    request through the existing ART machinery;
//  * "the prototype prefetches only one block of data it anticipates will
//    be needed for the future read request" (depth = 1; depth > 1 is this
//    library's extension for the ablation benches);
//  * prefetched data lands in a prefetch buffer allocated in compute-node
//    memory and is linked into the file's prefetch buffer list;
//  * file pointers are never moved by a prefetch;
//  * on a hit the data is copied prefetch-buffer -> user buffer (the copy
//    is the overhead that makes prefetching a slight loss for small
//    requests with no compute overlap — Tables 1 and 3);
//  * a hit on a still-in-flight prefetch waits only for the remainder
//    ("even if ... a miss when the request is presented, if most of the
//    read is already done, the performance benefits can be tremendous");
//  * on close, every buffer is freed.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>

#include "pfs/client.hpp"
#include "prefetch/controller.hpp"
#include "prefetch/predictor.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "sim/types.hpp"

namespace ppfs::sim::check {
class Auditor;
}

namespace ppfs::prefetch {

struct PrefetchConfig {
  bool enabled = true;
  /// Blocks to keep ahead of the application. The paper's prototype: 1.
  std::size_t depth = 1;
  /// Cap on resident prefetch buffers per file.
  std::size_t max_buffers_per_file = 16;
  PredictorKind predictor = PredictorKind::kModeAware;

  /// Fault-aware degradation: when the client's RPC envelope reports fault
  /// activity (or an I/O daemon is down), the engine sheds every resident
  /// prefetch buffer and pauses speculation; it resumes after this many
  /// consecutive fault-free reads.
  std::size_t fault_resume_reads = 3;

  /// Adaptive readahead depth (AdaptaFetch, default off): per-fd windowed
  /// hit-rate feedback scales depth between 1 and `max_depth`, bounded by
  /// max_buffers_per_file. When off, `depth` above is used verbatim and
  /// the event stream is bit-identical to the fixed-depth engine.
  bool adaptive_depth = false;
  std::size_t max_depth = 8;
  /// Reads per feedback window (controller evaluation cadence).
  std::size_t feedback_window = 4;
  /// Consecutive misses that collapse depth to 1 immediately.
  std::size_t miss_storm = 4;
  /// Phases the controller's feedback windows; part of the deterministic
  /// adaptation state (same seed + same read stream = same trajectory).
  std::uint64_t adaptive_seed = 1;
};

struct PrefetchStats {
  std::uint64_t issued = 0;          // prefetch requests posted
  std::uint64_t hits_ready = 0;      // served from a completed buffer
  std::uint64_t hits_in_flight = 0;  // served after waiting for an active ART
  std::uint64_t misses = 0;          // no matching buffer
  std::uint64_t stale_discarded = 0; // overlapping-but-wrong buffers dropped
  std::uint64_t wasted = 0;          // never-consumed buffers freed at close
  std::uint64_t shed = 0;            // buffers dropped on fault activity
  std::uint64_t epoch_discarded = 0; // dead-epoch buffers refused at serve time
  std::uint64_t fault_pauses = 0;    // times speculation was paused by faults
  std::uint64_t fault_skips = 0;     // reads that issued no prefetch while paused
  sim::ByteCount bytes_prefetched = 0;
  sim::ByteCount bytes_served = 0;
  sim::SimTime wait_time = 0;        // stall on in-flight hits

  // AdaptaFetch controller activity (all zero when adaptive depth is off).
  std::uint64_t depth_ramp_ups = 0;
  std::uint64_t depth_ramp_downs = 0;
  std::uint64_t depth_collapses = 0;  // miss-storm / fault collapses to 1
  /// Prefetched bytes that never reached the application (stale discards,
  /// cap evictions, shed, dead-epoch, freed at close).
  sim::ByteCount wasted_bytes = 0;
  /// Histogram of the depth used per issuing opportunity: bucket 0 counts
  /// after_read calls that issued nothing (no prediction / depth 0),
  /// bucket k counts calls made at depth k, the last bucket >= its index.
  static constexpr std::size_t kDepthHistBuckets = 9;
  std::array<std::uint64_t, kDepthHistBuckets> depth_hist{};

  /// Add another engine's counters into this one: every field is a sum,
  /// the depth histogram bucket by bucket. The workload drivers' run
  /// skeleton folds every engine into one run total with it.
  void merge(const PrefetchStats& o);

  double hit_ratio() const {
    const auto total = hits_ready + hits_in_flight + misses;
    return total ? static_cast<double>(hits_ready + hits_in_flight) /
                       static_cast<double>(total)
                 : 0.0;
  }
  /// Fraction of issued prefetches the application actually consumed.
  double useful_ratio() const {
    return issued ? static_cast<double>(hits_ready + hits_in_flight) /
                        static_cast<double>(issued)
                  : 0.0;
  }
};

class PrefetchEngine final : public pfs::Prefetcher {
 public:
  PrefetchEngine(pfs::PfsClient& client, PrefetchConfig cfg);
  /// Verifies SimCheck buffer conservation for this engine: every buffer
  /// ever allocated ended consumed, discarded, or freed at close.
  ~PrefetchEngine() override;

  // --- pfs::Prefetcher ---
  sim::Task<std::optional<ByteCount>> try_serve(int fd, FileOffset off, ByteCount len,
                                                std::span<std::byte> out) override;
  sim::Task<void> after_read(int fd, FileOffset off, ByteCount len) override;
  /// Drops every buffer of `fd` that overlaps the write, landed or in
  /// flight, as try_serve drops stale ones. The adaptive controller is not
  /// told: the prediction was not wrong.
  void on_write(int fd, FileOffset off, ByteCount len) override;
  void on_open(int fd) override;
  void on_close(int fd) override;

  const PrefetchStats& stats() const noexcept { return stats_; }
  const PrefetchConfig& config() const noexcept { return cfg_; }
  /// Buffers currently resident for an fd (0 if unknown fd).
  std::size_t resident_buffers(int fd) const;
  /// Readahead depth the next after_read on this fd will use (the fixed
  /// config depth unless the adaptive controller is on).
  std::size_t current_depth(int fd) const;
  /// The adaptive controller, or nullptr when adaptive depth is off.
  const AdaptiveController* controller() const noexcept { return controller_.get(); }

 private:
  /// Park a buffer whose ART may still be writing into it; it is freed
  /// once the request completes.
  void retire(PrefetchBufferList::Handle buf);
  sim::Task<void> reap(PrefetchBufferList::Handle buf);
  /// Discard every buffer in `list` overlapping [off, off+len) as stale;
  /// returns how many.
  std::uint64_t discard_overlapping(PrefetchBufferList& list, FileOffset off, ByteCount len);

  /// Feed a serve outcome to the adaptive controller and trace/record any
  /// resulting depth transition. No-op when adaptive depth is off.
  void depth_feedback(int fd, bool hit);
  /// Emit the depth-change instant + per-fd depth counter sample.
  void note_depth(int fd, std::size_t depth);
  /// Mirror the controller's ramp/collapse counters into stats_.
  void sync_controller_stats();
  /// Drop every resident prefetch buffer across all fds (fault response:
  /// speculative disk work only competes with recovery traffic).
  void shed_all();
  /// Returns true if after_read should skip issuing prefetches because of
  /// fault activity (sheds buffers / counts quiet reads as a side effect).
  bool fault_gate();
  /// The SimCheck auditor of the simulation this engine runs in (nullptr
  /// when auditing is compiled out).
  sim::check::Auditor* auditor() const;

  /// TraceScope hooks: a point event on this rank's prefetch row, and the
  /// buffer-occupancy counter sampled after every resident-set change.
  void trace_instant(std::uint8_t code, FileOffset off, ByteCount len) const;
  void occupancy_changed(std::int64_t dbuffers, std::int64_t dbytes);

  pfs::PfsClient& client_;
  PrefetchConfig cfg_;
  std::unique_ptr<Predictor> predictor_;
  std::unique_ptr<AdaptiveController> controller_;  // non-null iff adaptive_depth
  std::map<int, PrefetchBufferList> lists_;
  PrefetchStats stats_;
  std::uint64_t last_fault_signal_ = 0;  // client RPC fault counter last seen
  bool fault_paused_ = false;
  std::uint64_t quiet_reads_ = 0;  // fault-free reads since the pause
  std::uint64_t resident_count_ = 0;  // buffers resident across all fds
  std::uint64_t resident_bytes_ = 0;  // bytes those buffers hold
};

/// Convenience: construct an engine and attach it to the client. The
/// returned engine must outlive the client's use of it.
std::unique_ptr<PrefetchEngine> attach_prefetcher(pfs::PfsClient& client, PrefetchConfig cfg);

}  // namespace ppfs::prefetch
