#include "ufs/buffer_cache.hpp"

#include <cassert>
#include <stdexcept>

namespace ppfs::ufs {

BufferCache::BufferCache(sim::Simulation& s, std::size_t capacity_blocks, ByteCount block_bytes,
                         FillFn fill, FlushFn flush)
    : sim_(s),
      capacity_(capacity_blocks),
      block_bytes_(block_bytes),
      fill_(std::move(fill)),
      flush_(std::move(flush)) {
  if (capacity_blocks == 0) throw std::invalid_argument("BufferCache: zero capacity");
}

void BufferCache::touch(std::uint64_t phys, Entry& e) {
  lru_.erase(e.lru);
  lru_.push_front(phys);
  e.lru = lru_.begin();
}

void BufferCache::evict_if_needed() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++evictions_;
  }
}

sim::Task<void> BufferCache::ensure_valid(std::uint64_t phys) {
  bool waited = false;
  for (;;) {
    auto it = entries_.find(phys);
    if (it != entries_.end()) {
      if (it->second.valid) {
        if (waited) co_return;  // woken by the filler; it already made the entry MRU
        ++hits_;
        touch(phys, it->second);
        co_return;
      }
      // Someone else is filling this block right now; wait for them, then
      // re-check — the fill may have failed and dropped the entry.
      ++fill_waits_;
      waited = true;
      co_await it->second.filling->wait();
      continue;
    }

    ++misses_;
    Entry& e = entries_[phys];
    e.data = std::make_unique<std::byte[]>(block_bytes_);
    e.filling = std::make_unique<sim::Event>(sim_);
    try {
      co_await fill_(phys, std::span<std::byte>(e.data.get(), block_bytes_));
    } catch (...) {
      // A failed fill must wake any waiters (they re-check, find the entry
      // gone, and retry the fill themselves) and drop the entry so the
      // block is not wedged forever; the error surfaces to this caller.
      auto bad = entries_.find(phys);
      bad->second.filling->set();
      entries_.erase(bad);
      throw;
    }
    // The map may have rehashed during the await; re-find.
    auto& entry = entries_.at(phys);
    entry.valid = true;
    lru_.push_front(phys);
    entry.lru = lru_.begin();
    entry.filling->set();
    evict_if_needed();
    co_return;
  }
}

sim::Task<void> BufferCache::read(std::uint64_t phys, ByteCount offset_in_block,
                                  OutBytes out) {
  assert(offset_in_block + out.size() <= block_bytes_);
  co_await ensure_valid(phys);
  const Entry& e = entries_.at(phys);
  out.copy_from(e.data.get() + offset_in_block);
}

sim::Task<void> BufferCache::write(std::uint64_t phys, ByteCount offset_in_block, InBytes in) {
  assert(offset_in_block + in.size() <= block_bytes_);
  const bool partial = offset_in_block != 0 || in.size() != block_bytes_;
  if (partial) {
    // Write-allocate a partial write: fetch the block before merging.
    co_await ensure_valid(phys);
  } else {
    auto it = entries_.find(phys);
    if (it != entries_.end() && !it->second.valid) {
      // A fill is in flight; let it land before overwriting.
      co_await it->second.filling->wait();
    }
    if (!entries_.count(phys)) {
      // Full-block overwrite: no need to read old contents.
      ++misses_;
      Entry& fresh = entries_[phys];
      fresh.data = std::make_unique<std::byte[]>(block_bytes_);
      fresh.filling = std::make_unique<sim::Event>(sim_);
      fresh.valid = true;
      fresh.filling->set();
      lru_.push_front(phys);
      fresh.lru = lru_.begin();
      evict_if_needed();
    }
  }
  Entry& e = entries_.at(phys);
  in.copy_to(e.data.get() + offset_in_block);
  touch(phys, e);
  // Write-through to the device (whole-block image).
  co_await flush_(phys, std::span<const std::byte>(e.data.get(), block_bytes_));
}

void BufferCache::clear() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.valid) {
      lru_.erase(it->second.lru);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferCache::invalidate(std::uint64_t phys) {
  auto it = entries_.find(phys);
  if (it == entries_.end()) return;
  if (!it->second.valid) return;  // never drop a filling entry
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

}  // namespace ppfs::ufs
