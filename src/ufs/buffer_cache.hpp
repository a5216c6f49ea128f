// The I/O-node file-system buffer cache (LRU, write-through).
//
// This is the cache the Paragon PFS *bypasses* when buffering is disabled:
// "the file system buffer cache on the Paragon OS server is bypassed ...
// Instead, Fast Path reads data directly from the disks to the user's
// buffer". It still serves the buffered path (partial blocks, M_GLOBAL
// re-reads, metadata-ish traffic).
//
// Concurrency: a miss installs a "filling" entry before the disk read, so
// simultaneous readers of one block issue a single disk access and the
// latecomers wait on the entry's completion event. Filling entries are
// never evicted; eviction is LRU over valid entries and may briefly be
// deferred if every entry is mid-fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "ufs/strided_span.hpp"

namespace ppfs::ufs {

using sim::ByteCount;

class BufferCache {
 public:
  /// Loads the given physical block from the device into `dest`
  /// (dest.size() == block_bytes).
  using FillFn = std::function<sim::Task<void>(std::uint64_t phys, std::span<std::byte> dest)>;
  /// Writes the given physical block image back to the device.
  using FlushFn =
      std::function<sim::Task<void>(std::uint64_t phys, std::span<const std::byte> src)>;

  BufferCache(sim::Simulation& s, std::size_t capacity_blocks, ByteCount block_bytes,
              FillFn fill, FlushFn flush);
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Copy out.size() bytes of the block from `offset_in_block` into `out`,
  /// loading it from the device on a miss.
  sim::Task<void> read(std::uint64_t phys, ByteCount offset_in_block, OutBytes out);

  /// Write-through: update the cached image (write-allocate; a partial
  /// write of a cold block fills it first) and flush to the device.
  sim::Task<void> write(std::uint64_t phys, ByteCount offset_in_block, InBytes in);

  /// Drop a block if present (used when a file is deleted).
  void invalidate(std::uint64_t phys);

  /// Drop every valid block — an I/O node restart comes back with a cold
  /// cache. Entries mid-fill are kept; their fills land normally.
  void clear();

  bool contains(std::uint64_t phys) const { return entries_.count(phys) != 0; }
  std::size_t resident_blocks() const noexcept { return entries_.size(); }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t fill_waits() const noexcept { return fill_waits_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    std::unique_ptr<std::byte[]> data;
    bool valid = false;                     // false while filling
    std::unique_ptr<sim::Event> filling;    // waiters queue here during fill
    std::list<std::uint64_t>::iterator lru; // position in lru_ when valid
  };

  /// Returns an entry that is valid (waiting for a fill if necessary).
  sim::Task<void> ensure_valid(std::uint64_t phys);
  void touch(std::uint64_t phys, Entry& e);
  void evict_if_needed();

  sim::Simulation& sim_;
  std::size_t capacity_;
  ByteCount block_bytes_;
  FillFn fill_;
  FlushFn flush_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recent

  std::uint64_t hits_ = 0, misses_ = 0, fill_waits_ = 0, evictions_ = 0;
};

}  // namespace ppfs::ufs
