#include "sim/frame_arena.hpp"

#include <sanitizer/asan_interface.h>

#include <cassert>
#include <new>

namespace ppfs::sim {

FrameArena& FrameArena::local() noexcept {
  thread_local FrameArena arena;
  return arena;
}

FrameArena::Bucket& FrameArena::bucket_for(std::size_t block_bytes) {
  for (auto& b : buckets_) {
    if (b.bytes == block_bytes) return b;
  }
  auto& b = buckets_.emplace_back();
  b.bytes = block_bytes;
  return b;
}

void* FrameArena::allocate(std::size_t bytes) {
  const std::size_t block_bytes =
      ((bytes + kHeaderSize + kGranularity - 1) / kGranularity) * kGranularity;
  ++stats_.allocs;
  ++stats_.live;
  stats_.live_bytes += block_bytes;
  if (stats_.live_bytes > stats_.peak_live_bytes) stats_.peak_live_bytes = stats_.live_bytes;
  Bucket& bucket = bucket_for(block_bytes);
  char* block;
  if (!bucket.free.empty()) {
    block = static_cast<char*>(bucket.free.back());
    bucket.free.pop_back();
    ++stats_.pool_hits;
    --stats_.cached_blocks;
    stats_.cached_bytes -= block_bytes;
    ASAN_UNPOISON_MEMORY_REGION(block + kHeaderSize, block_bytes - kHeaderSize);
  } else {
    block = static_cast<char*>(::operator new(block_bytes));
    // A fresh block carries no ledger; a reused one keeps its previous
    // frame's until SimCheck notes a new Task frame in it.
    ::new (block) FrameHeader{static_cast<std::uint32_t>(block_bytes), kTag, 0, 0};
  }
  return block + kHeaderSize;
}

void FrameArena::deallocate(void* p) noexcept {
  if (!p) return;
  char* block = static_cast<char*>(p) - kHeaderSize;
  const FrameHeader& header = header_of(p);
  assert(header.tag == kTag && "FrameArena: freeing a block the arena did not allocate");
  const std::size_t block_bytes = header.block_bytes;
  assert(stats_.live > 0);
  --stats_.live;
  stats_.live_bytes -= block_bytes;
  ASAN_POISON_MEMORY_REGION(block + kHeaderSize, block_bytes - kHeaderSize);
  bucket_for(block_bytes).free.push_back(block);
  ++stats_.cached_blocks;
  stats_.cached_bytes += block_bytes;
}

void FrameArena::trim() noexcept {
  for (auto& bucket : buckets_) {
    for (void* block : bucket.free) {
      ++stats_.trims;
      ASAN_UNPOISON_MEMORY_REGION(block, bucket.bytes);
      ::operator delete(block);
    }
    stats_.cached_blocks -= bucket.free.size();
    stats_.cached_bytes -= bucket.bytes * bucket.free.size();
    bucket.free.clear();
  }
}

}  // namespace ppfs::sim
