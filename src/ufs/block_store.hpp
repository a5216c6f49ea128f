// Device-level byte content, and the device timing interface.
//
// The simulator separates WHEN data moves (BlockDevice::transfer — mechanical
// timing, modeled by hw::RaidArray) from WHAT the bytes are (ContentStore —
// a sparse in-memory image of the medium). Every read in the stack returns
// real bytes, so integrity tests catch addressing bugs end-to-end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/raid.hpp"
#include "sim/flat_map.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "ufs/strided_span.hpp"

namespace ppfs::ufs {

using sim::ByteCount;
using sim::FileOffset;

/// Timing interface to a storage device (sector-addressed).
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  /// Suspend the caller for the duration of moving `bytes` at `sector`.
  virtual sim::Task<void> transfer(std::uint64_t sector, ByteCount bytes, bool write) = 0;
  virtual ByteCount capacity_bytes() const = 0;
  virtual std::uint32_t sector_bytes() const = 0;
};

/// Adaptor: an hw::RaidArray as a BlockDevice.
class RaidBlockDevice final : public BlockDevice {
 public:
  explicit RaidBlockDevice(hw::RaidArray& raid) : raid_(raid) {}
  sim::Task<void> transfer(std::uint64_t sector, ByteCount bytes, bool write) override {
    return raid_.transfer(sector, bytes, write);
  }
  ByteCount capacity_bytes() const override { return raid_.capacity_bytes(); }
  std::uint32_t sector_bytes() const override {
    return raid_.params().disk.sector_bytes;
  }

 private:
  hw::RaidArray& raid_;
};

/// Zero-latency device for unit tests of the layers above.
class NullBlockDevice final : public BlockDevice {
 public:
  explicit NullBlockDevice(sim::Simulation& s, ByteCount capacity = 1ull << 32)
      : sim_(s), capacity_(capacity) {}
  sim::Task<void> transfer(std::uint64_t, ByteCount bytes, bool write) override {
    ++ops_;
    bytes_ += bytes;
    if (write) ++writes_;
    co_await sim_.delay(0);
  }
  ByteCount capacity_bytes() const override { return capacity_; }
  std::uint32_t sector_bytes() const override { return 512; }

  std::uint64_t ops() const noexcept { return ops_; }
  std::uint64_t writes() const noexcept { return writes_; }
  ByteCount bytes() const noexcept { return bytes_; }

 private:
  sim::Simulation& sim_;
  ByteCount capacity_;
  std::uint64_t ops_ = 0, writes_ = 0;
  ByteCount bytes_ = 0;
};

/// Chunk memory for the content stores of one mount, in 2 MiB slabs,
/// 2 MiB-aligned and advised MADV_HUGEPAGE; chunks are handed out by
/// bumping a pointer through the newest slab.
///
/// Slabs outlive the mount. Each thread keeps one free list of 2 MiB
/// slabs: a dying arena puts its slabs there, and a new arena on the same
/// thread takes from it before it maps a fresh one. So the machines a
/// thread runs one after another (sweep workers, benches, repeated driver
/// calls) pay the kernel to fault in and zero their content image once,
/// not once per machine. A thread maps a slab only when its list is
/// empty, so the content memory it holds never exceeds the most it had
/// live at once; the list unmaps its slabs at thread exit, as the
/// FrameArena does. Threads share nothing. A slab larger than 2 MiB (a
/// request larger than a slab) is unmapped with its arena.
///
/// One arena per mount, not per store: the mount then leaves at most one
/// partly used slab, where per-store arenas would leave one per store.
/// Huge pages: a fresh 128 MB image faults 64 times on 2 MiB pages
/// against 32,768 times on 4 KiB ones. Where the kernel refuses the advice
/// (THP off), a slab stays on 4 KiB pages and nothing else changes.
class ContentArena {
 public:
  ContentArena() = default;
  ~ContentArena();
  ContentArena(const ContentArena&) = delete;
  ContentArena& operator=(const ContentArena&) = delete;

  /// `bytes` of uninitialised memory, 64-byte aligned, valid until the
  /// arena dies: a slab from the thread's free list still holds a dead
  /// mount's bytes. A request larger than a slab gets a slab of its own.
  std::byte* allocate(std::size_t bytes);

  std::size_t slab_count() const noexcept { return slabs_.size(); }

  static constexpr std::size_t kSlabBytes = std::size_t{2} << 20;

 private:
  struct Slab {
    std::byte* base;
    std::size_t bytes;
  };
  std::vector<Slab> slabs_;
  std::byte* next_ = nullptr;  // bump pointer into the newest slab
  std::byte* end_ = nullptr;
};

/// Sparse byte image of a device. Unwritten ranges read back as zero.
///
/// A chunk is stored only once a write puts a non-zero byte in it: a write
/// of all zeros into an absent chunk changes nothing a read can see. Chunk
/// memory comes from the mount's ContentArena and goes back only with it;
/// the first write of a chunk zeroes what it leaves uncovered.
class ContentStore {
 public:
  ContentStore(ContentArena& arena, ByteCount chunk_bytes);
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Store `data`'s bytes, in position order, at [offset, offset + size).
  void write(FileOffset offset, InBytes data);
  /// Copy [offset, offset + size) into `out`, in position order.
  void read(FileOffset offset, OutBytes out) const;
  /// Make [offset, offset + bytes) read back as zeros: whole chunks leave
  /// the index, and a partly covered chunk is zeroed in the range.
  void discard(FileOffset offset, ByteCount bytes);

  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  ByteCount chunk_bytes() const noexcept { return chunk_; }

 private:
  ContentArena& arena_;
  ByteCount chunk_;
  sim::FlatMap<std::uint64_t, std::byte*> chunks_;  // chunk index -> its bytes
};

}  // namespace ppfs::ufs
