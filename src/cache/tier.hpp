// CacheTier — the per-I/O-node persistent second-tier block cache.
//
// Sits between the UFS buffer cache and the RAID array: block-aligned data
// that has travelled the disk path once (demand fills and write-through
// writes both) is also resident on a node-local cache device, modeled as a
// flash-like channel (fixed latency + bandwidth, FIFO capacity-1 queue).
// A later read of a resident block is served at cache-device speed instead
// of paying the RAID path again.
//
// What makes the tier interesting is what survives a crash. Residency
// METADATA — the per-file downloaded-block bitmap (CacheFileInfo) — is
// journaled through the cache device: every `journal_flush_interval` bit
// mutations the file's entry is rewritten as one journal write. A crash
// throws away the volatile bitmap; restart replays the journal, dropping
//   * torn entries   — the crash landed mid-write; the checksum fails,
//   * stale entries  — the inode generation no longer matches (the file
//                      was deleted/recreated under the entry),
//   * out-of-range bits — blocks beyond the file's current allocation,
// and resumes serving the warm blocks that remain. Block DATA is not
// duplicated here: the simulator's ContentStore is the single byte-truth
// for the medium, so a recovered bitmap bit is sufficient to serve the
// current bytes (the tier is strictly write-through, never dirty).
//
// Determinism: all state is keyed by (ino, logical block) in ordered maps,
// eviction is queue-based, and journal flushes ride the simulation's own
// event loop — runs with the tier on replay bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/eviction.hpp"
#include "cache/info.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::cache {

struct CacheTierParams {
  bool enabled = false;
  ByteCount block_bytes = 64 * 1024;
  /// Tier capacity in blocks (per I/O node).
  std::uint64_t capacity_blocks = 1024;
  /// Cache device service model: fixed latency plus bytes/bandwidth, one
  /// transfer at a time (FIFO). Faster than the RAID path by construction.
  double device_latency = 0.2e-3;
  double device_bandwidth = 120.0e6;  // bytes/second
  /// Journal the bitmap after this many bit mutations per file.
  std::uint32_t journal_flush_interval = 8;
  EvictionKind eviction = EvictionKind::kLru;
};

struct CacheTierStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovered_blocks = 0;
  std::uint64_t torn_entries_dropped = 0;
  std::uint64_t stale_entries_dropped = 0;
  std::uint64_t out_of_range_bits_dropped = 0;
  /// Window since the last recover() — the warm-restart hit ratio.
  std::uint64_t warm_lookups = 0;
  std::uint64_t warm_hits = 0;
  sim::ByteCount bytes_served = 0;
  sim::SimTime last_recovery_time = 0;
  sim::SimTime total_recovery_time = 0;

  double hit_ratio() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
  double warm_hit_ratio() const {
    return warm_lookups ? static_cast<double>(warm_hits) / static_cast<double>(warm_lookups)
                        : 0.0;
  }
};

class CacheTier {
 public:
  /// `gen_of` maps an inode number to its current generation (0 = unknown
  /// inode); `blocks_of` to its current allocated block count. Both are
  /// supplied by the owning UFS so the tier never reaches into its tables.
  using InodeQuery = std::function<std::uint64_t(std::uint32_t ino)>;

  /// One journaled bitmap entry as it sits on the cache device.
  struct DurableEntry {
    std::vector<std::byte> payload;
    /// False while a journal write is in flight; a crash during that
    /// window scrambles the payload so decode() sees a torn entry.
    bool write_complete = true;
  };

  CacheTier(sim::Simulation& sim, std::string name, CacheTierParams params,
            InodeQuery gen_of, InodeQuery blocks_of);
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;
  ~CacheTier();

  bool enabled() const noexcept { return params_.enabled; }
  const CacheTierParams& params() const noexcept { return params_; }
  const std::string& name() const noexcept { return name_; }

  // --- data path (UFS hooks) ---
  /// Silent residency probe (no stats) for the serve-or-not decision.
  bool resident(std::uint32_t ino, std::uint64_t lblock) const noexcept;
  /// Account one block served from the tier (stats + eviction recency).
  void note_hit(std::uint32_t ino, std::uint64_t lblock);
  /// Account `count` blocks that had to go to the RAID path.
  void note_miss_blocks(std::uint64_t count);
  /// Timed cache-device read of `blocks` contiguous tier blocks.
  sim::Task<void> read_hit(std::uint64_t blocks);
  /// Write-through population: mark the block resident and journal per
  /// policy. Non-blocking — the journal write rides a spawned process.
  void insert(std::uint32_t ino, std::uint64_t generation, std::uint64_t lblock);

  // --- fault integration (PfsServer hooks) ---
  /// Crash epoch: volatile residency is lost; journal writes in flight
  /// become torn entries.
  void on_crash();
  /// Replay the journal from the cache device (timed), dropping torn,
  /// stale-generation, and out-of-range state, and rebuild the volatile
  /// bitmap so warm blocks serve again. Resets the warm-hit window.
  sim::Task<void> recover();

  // --- fsck / introspection ---
  const std::map<std::uint32_t, DurableEntry>& durable_entries() const noexcept {
    return durable_;
  }
  std::uint64_t resident_blocks() const noexcept { return resident_blocks_; }
  /// Drop a file's entry everywhere (journal + volatile) — fsck quarantine.
  void fsck_drop(std::uint32_t ino);
  /// Replace a file's journal entry with a repaired bitmap and reconcile
  /// the volatile view down to it (bits the repair cleared stop serving).
  void fsck_rewrite(std::uint32_t ino, const CacheFileInfo& repaired);

  // --- seeded corruption (tests, ppfs_fsck --corrupt) ---
  void debug_corrupt_payload(std::uint32_t ino);
  void debug_replace_entry(std::uint32_t ino, const CacheFileInfo& info);
  void debug_insert_raw(std::uint32_t ino, std::vector<std::byte> payload);

  const CacheTierStats& stats() const noexcept { return stats_; }

 private:
  sim::Task<void> flush_journal(std::uint32_t ino);
  sim::Task<void> transfer(ByteCount bytes);
  void mark_dirty(std::uint32_t ino);
  void evict_to_capacity();
  /// Clear one volatile bit with full accounting; returns true if it was set.
  bool drop_bit(std::uint32_t ino, std::uint64_t lblock);
  void drop_entry_volatile(std::uint32_t ino);
  sim::check::Auditor* auditor() const noexcept { return sim_.auditor(); }

  sim::Simulation& sim_;
  std::string name_;
  CacheTierParams params_;
  InodeQuery gen_of_;
  InodeQuery blocks_of_;
  sim::Resource channel_;  // the cache device: one transfer at a time

  std::map<std::uint32_t, CacheFileInfo> info_;      // volatile residency
  std::map<std::uint32_t, DurableEntry> durable_;    // the on-"disk" journal
  std::map<std::uint32_t, std::uint32_t> dirty_;     // bit mutations since flush
  std::map<std::uint32_t, bool> flush_in_flight_;
  std::unique_ptr<EvictionPolicy> eviction_;
  std::uint64_t resident_blocks_ = 0;
  std::uint64_t crash_count_ = 0;
  CacheTierStats stats_;
};

}  // namespace ppfs::cache
