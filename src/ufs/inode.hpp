// Inodes, the block bitmap allocator, and the flat directory.
//
// Allocation favors physical contiguity (first free block at or after a
// caller-supplied hint, usually previous_block + 1). Contiguous files are
// what make the UFS layer's request coalescing — and the drive's track
// cache — effective on large transfers, which the paper's Fast Path relies
// on ("file system block coalescing is done on large read and write
// operations, which reduces the number of required disk accesses when
// blocks of the file are contiguous on the disk").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ppfs::ufs {

using InodeNum = std::uint32_t;
inline constexpr InodeNum kInvalidInode = 0;

struct Inode {
  InodeNum ino = kInvalidInode;
  /// Monotonic per-table stamp assigned at create(). Distinguishes "this
  /// file" from "a different file that later reused the ino" — which is what
  /// the cache tier's journal entries key against to detect staleness.
  std::uint64_t generation = 0;
  sim::ByteCount size = 0;                 // logical file size in bytes
  std::vector<std::uint64_t> blocks;       // logical block -> physical block
};

/// First-fit bitmap allocator over the device's block space.
class BlockAllocator {
 public:
  explicit BlockAllocator(std::uint64_t total_blocks);

  /// Allocate one block, preferring `hint` and scanning upward, wrapping
  /// around once. Returns nullopt when the device is full.
  std::optional<std::uint64_t> allocate(std::uint64_t hint = 0);
  void free(std::uint64_t block);

  std::uint64_t total_blocks() const noexcept { return used_.size(); }
  std::uint64_t free_blocks() const noexcept { return used_.size() - allocated_; }

 private:
  std::vector<bool> used_;
  std::uint64_t allocated_ = 0;
};

/// Inode table plus a single flat directory (all the paper's workloads
/// need; PFS stripe files live in one directory per I/O node).
class InodeTable {
 public:
  InodeNum create(const std::string& name);
  InodeNum lookup(const std::string& name) const;  // kInvalidInode if absent
  void remove(const std::string& name);

  Inode& get(InodeNum ino);
  const Inode& get(InodeNum ino) const;
  bool exists(InodeNum ino) const { return inodes_.count(ino) != 0; }

  const std::map<std::string, InodeNum>& directory() const noexcept { return directory_; }

 private:
  InodeNum next_ino_ = 1;
  std::uint64_t next_generation_ = 1;
  std::map<InodeNum, Inode> inodes_;
  std::map<std::string, InodeNum> directory_;
};

}  // namespace ppfs::ufs
