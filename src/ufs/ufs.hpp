// Ufs: the Unix File System instance running on one I/O node.
//
// The Paragon PFS "stripes the files across a group of regular Unix File
// Systems (UFS) which are located on distinct storage devices"; this class
// is one of those UFS instances. It provides:
//
//  * create/lookup over a flat directory,
//  * contiguity-seeking block allocation,
//  * a buffered read/write path through the LRU buffer cache (partial /
//    unaligned requests pay an extra staging copy, the overhead the paper
//    attributes to "creating temporary buffers for the size of the partial
//    blocks and copying only the necessary data"),
//  * a Fast Path for block-aligned transfers: cache bypassed, data moves
//    device<->user buffer directly, with contiguous-run coalescing so a
//    multi-block request on a contiguous file costs one disk access.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/tier.hpp"
#include "hw/node.hpp"
#include "sim/inline_vec.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "ufs/block_store.hpp"
#include "ufs/buffer_cache.hpp"
#include "ufs/inode.hpp"
#include "ufs/strided_span.hpp"

namespace ppfs::ufs {

using sim::FileOffset;

struct UfsParams {
  /// File system block size; 64 KB was the Paragon PFS default.
  ByteCount block_bytes = 64 * 1024;
  std::size_t cache_blocks = 128;
  /// Merge physically-contiguous block runs into single disk accesses.
  bool coalesce = true;
  /// SERVER-side readahead: after a buffered read finishes at file block b,
  /// asynchronously pull blocks b+1..b+readahead_blocks into the buffer
  /// cache. This is the classic uniprocessor strategy the paper contrasts
  /// with client-side prefetching — it only helps the buffered path (the
  /// Fast Path bypasses the cache by design) and it cannot see the
  /// per-compute-node interleave the client-side engine exploits.
  std::uint32_t readahead_blocks = 0;
  /// Persistent second-tier block cache (off by default; when off the data
  /// path is bit-identical to a build without the tier). block_bytes is
  /// forced to match the UFS block size at construction.
  cache::CacheTierParams cache_tier{};
};

struct UfsStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fastpath_reads = 0;
  std::uint64_t fastpath_writes = 0;
  std::uint64_t disk_runs = 0;        // device transfers issued by fast path
  std::uint64_t coalesced_blocks = 0; // blocks moved in multi-block runs
  std::uint64_t readaheads_issued = 0;
  std::uint64_t readahead_errors = 0; // best-effort fills absorbed a fault
  sim::ByteCount bytes_read = 0;
  sim::ByteCount bytes_written = 0;
};

class Ufs {
 public:
  Ufs(sim::Simulation& s, std::string name, BlockDevice& device, ContentStore& content,
      hw::NodeCpu* cpu, UfsParams params);
  Ufs(const Ufs&) = delete;
  Ufs& operator=(const Ufs&) = delete;

  // --- namespace ---
  InodeNum create(const std::string& name) { return inodes_.create(name); }
  InodeNum lookup(const std::string& name) const { return inodes_.lookup(name); }
  void remove(const std::string& name);
  const Inode& inode_of(InodeNum ino) const { return inodes_.get(ino); }
  ByteCount file_size(InodeNum ino) const { return inodes_.get(ino).size; }
  /// The flat directory (name -> ino) — the truth table ppfs_fsck audits
  /// the cache-tier journal against.
  const std::map<std::string, InodeNum>& directory() const noexcept {
    return inodes_.directory();
  }

  // --- data path ---
  /// Read up to len bytes at off into out (out.size() >= len): byte
  /// off + p lands at out position p. Returns the byte count actually read
  /// (clamped at EOF); positions past it are left alone. `fastpath`
  /// requests the cache-bypassing DMA path; it silently degrades to the
  /// buffered path when the request is not block-aligned.
  sim::Task<ByteCount> read(InodeNum ino, FileOffset off, ByteCount len, OutBytes out,
                            bool fastpath);

  /// Write in.size() bytes at off, extending the file (and allocating
  /// blocks) as needed.
  sim::Task<void> write(InodeNum ino, FileOffset off, InBytes in, bool fastpath);

  /// One read of a physically-sorted batch (the PFS server's sweep).
  struct BatchRead {
    InodeNum ino;
    FileOffset off = 0;
    ByteCount len = 0;
    OutBytes out;
    ByteCount got = 0;  // filled by read_sorted
  };

  /// True when a read can take the cache-bypassing fast path AND every
  /// covered block is allocated — the precondition for read_sorted.
  bool fastpath_read_eligible(InodeNum ino, FileOffset off, ByteCount len) const;

  /// Serve a batch of fastpath-eligible reads as one elevator sweep at
  /// BLOCK granularity: every (physical block, destination) pair across
  /// all items is sorted by disk position and physically-contiguous runs
  /// — even runs crossing file boundaries — become single device
  /// transfers. This is what makes server-side batching pay: N
  /// interleaved stripe files cost one streaming pass, not N seeks and
  /// N per-block controller/bus charges.
  sim::Task<void> read_sorted(std::span<BatchRead> items);

  const UfsParams& params() const noexcept { return params_; }
  const UfsStats& stats() const noexcept { return stats_; }
  const BufferCache& cache() const noexcept { return cache_; }

  /// Crash/restart support: the restarted I/O node comes back with a cold
  /// buffer cache. The second-tier cache is NOT dropped here — its journal
  /// survives the crash and CacheTier::on_crash/recover model what persists.
  void drop_caches() { cache_.clear(); }
  /// The persistent second tier, or nullptr when not enabled.
  cache::CacheTier* cache_tier() noexcept { return tier_.get(); }
  const cache::CacheTier* cache_tier() const noexcept { return tier_.get(); }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t total_blocks() const noexcept { return allocator_.total_blocks(); }
  std::uint64_t free_blocks() const noexcept { return allocator_.free_blocks(); }

 private:
  std::uint64_t sectors_per_block() const {
    return params_.block_bytes / device_.sector_bytes();
  }
  std::uint64_t block_to_sector(std::uint64_t phys) const {
    return phys * sectors_per_block();
  }
  FileOffset device_offset(std::uint64_t phys, ByteCount in_block) const {
    return phys * params_.block_bytes + in_block;
  }
  bool aligned(FileOffset off, ByteCount len) const {
    return off % params_.block_bytes == 0 && len % params_.block_bytes == 0;
  }

  /// Grow the inode's block list to cover byte offset `upto` (exclusive).
  void ensure_allocated(Inode& node, FileOffset upto);

  /// A physically-contiguous run of a file's blocks.
  struct Run {
    std::uint64_t phys_first;
    std::uint64_t count;
  };
  /// Inline up to eight runs: one per block of a 512 KB request.
  using Runs = sim::InlineVec<Run, 8>;
  /// The runs covering blocks [first_block, first_block + block_count), in
  /// logical order, written into `out` (cleared first).
  void contiguous_runs(const Inode& node, std::uint64_t first_block,
                       std::uint64_t block_count, Runs& out) const;

  sim::Task<ByteCount> read_fastpath(const Inode& node, FileOffset off, ByteCount len,
                                     OutBytes out);
  sim::Task<ByteCount> read_buffered(const Inode& node, FileOffset off, ByteCount len,
                                     OutBytes out);
  /// Launch background cache fills for the blocks after `last_block`.
  void issue_readahead(const Inode& node, std::uint64_t last_block);
  sim::Task<void> readahead_one(std::uint64_t phys);

  sim::Simulation& sim_;
  std::string name_;
  BlockDevice& device_;
  ContentStore& content_;
  hw::NodeCpu* cpu_;  // may be null in unit tests (no copy cost charged)
  UfsParams params_;
  InodeTable inodes_;
  BlockAllocator allocator_;
  BufferCache cache_;
  std::unique_ptr<cache::CacheTier> tier_;  // null when the tier is off
  UfsStats stats_;
};

}  // namespace ppfs::ufs
