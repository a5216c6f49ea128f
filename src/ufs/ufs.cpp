#include "ufs/ufs.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "fault/error.hpp"
#include "sim/check/audit.hpp"

namespace ppfs::ufs {

Ufs::Ufs(sim::Simulation& s, std::string name, BlockDevice& device, ContentStore& content,
         hw::NodeCpu* cpu, UfsParams params)
    : sim_(s),
      name_(std::move(name)),
      device_(device),
      content_(content),
      cpu_(cpu),
      params_(params),
      allocator_(device.capacity_bytes() / params.block_bytes),
      cache_(
          s, params.cache_blocks, params.block_bytes,
          // fill: device timing + real bytes from the content image
          [this](std::uint64_t phys, std::span<std::byte> dest) -> sim::Task<void> {
            co_await device_.transfer(block_to_sector(phys), params_.block_bytes,
                                      /*write=*/false);
            content_.read(device_offset(phys, 0), dest);
          },
          // flush: write-through
          [this](std::uint64_t phys, std::span<const std::byte> src) -> sim::Task<void> {
            content_.write(device_offset(phys, 0), src);
            co_await device_.transfer(block_to_sector(phys), params_.block_bytes,
                                      /*write=*/true);
          }) {
  if (params_.block_bytes % device.sector_bytes() != 0) {
    throw std::invalid_argument("Ufs: block size must be a multiple of the sector size");
  }
  if (params_.cache_tier.enabled) {
    params_.cache_tier.block_bytes = params_.block_bytes;
    tier_ = std::make_unique<cache::CacheTier>(
        sim_, name_ + "-tier", params_.cache_tier,
        [this](std::uint32_t ino) -> std::uint64_t {
          return inodes_.exists(ino) ? inodes_.get(ino).generation : 0;
        },
        [this](std::uint32_t ino) -> std::uint64_t {
          return inodes_.exists(ino) ? inodes_.get(ino).blocks.size() : 0;
        });
  }
}

void Ufs::remove(const std::string& fname) {
  const InodeNum ino = inodes_.lookup(fname);
  if (ino == kInvalidInode) throw std::invalid_argument("Ufs::remove: no such file " + fname);
  for (auto phys : inodes_.get(ino).blocks) {
    cache_.invalidate(phys);
    // The block may go to another file, whose holes must read as zeros
    // (a partial write fills the rest of its block from the store).
    content_.discard(device_offset(phys, 0), params_.block_bytes);
    allocator_.free(phys);
  }
  // The freed physical blocks can be reallocated to another file; the tier
  // must stop serving (and journaling) residency for the dead inode.
  if (tier_) tier_->fsck_drop(ino);
  inodes_.remove(fname);
}

void Ufs::ensure_allocated(Inode& node, FileOffset upto) {
  const std::uint64_t blocks_needed =
      (upto + params_.block_bytes - 1) / params_.block_bytes;
  while (node.blocks.size() < blocks_needed) {
    const std::uint64_t hint = node.blocks.empty() ? 0 : node.blocks.back() + 1;
    auto phys = allocator_.allocate(hint);
    if (!phys) throw std::runtime_error("Ufs: device full on " + name_);
    node.blocks.push_back(*phys);
  }
}

// ppfs::hot — contiguous_runs runs once per fast-path read or write; the
// runs go into the caller's inline scratch
void Ufs::contiguous_runs(const Inode& node, std::uint64_t first_block,
                          std::uint64_t block_count, Runs& out) const {
  out.clear();
  for (std::uint64_t i = 0; i < block_count; ++i) {
    const std::uint64_t phys = node.blocks.at(first_block + i);
    if (params_.coalesce && !out.empty() && out.back().phys_first + out.back().count == phys) {
      ++out.back().count;
    } else {
      out.push_back(Run{phys, 1});
    }
  }
}
// ppfs::endhot

sim::Task<ByteCount> Ufs::read(InodeNum ino, FileOffset off, ByteCount len, OutBytes out,
                               bool fastpath) {
  const Inode& node = inodes_.get(ino);
  if (off >= node.size || len == 0) co_return 0;
  len = std::min<ByteCount>(len, node.size - off);
  assert(out.size() >= len);
  ++stats_.reads;
  stats_.bytes_read += len;

  if (fastpath && aligned(off, len)) {
    ++stats_.fastpath_reads;
    co_return co_await read_fastpath(node, off, len, out);
  }
  co_return co_await read_buffered(node, off, len, out);
}

sim::Task<ByteCount> Ufs::read_fastpath(const Inode& node, FileOffset off, ByteCount len,
                                        OutBytes out) {
  const std::uint64_t first_block = off / params_.block_bytes;
  const std::uint64_t block_count = len / params_.block_bytes;
  Runs runs;
  contiguous_runs(node, first_block, block_count, runs);

  ByteCount done = 0;
  std::uint64_t lbase = first_block;  // runs cover consecutive logical blocks
  for (const Run& run : runs) {
    const ByteCount run_bytes = run.count * params_.block_bytes;
    bool warm = tier_ != nullptr;
    for (std::uint64_t b = 0; warm && b < run.count; ++b) {
      warm = tier_->resident(node.ino, lbase + b);
    }
    if (warm) {
      // Every block of the run is tier-resident: serve at cache-device
      // speed. Bytes still come from the content store — the tier is
      // write-through, so the store is the truth for its blocks too.
      for (std::uint64_t b = 0; b < run.count; ++b) tier_->note_hit(node.ino, lbase + b);
      co_await tier_->read_hit(run.count);
      content_.read(device_offset(run.phys_first, 0), out.subspan(done, run_bytes));
    } else {
      co_await device_.transfer(block_to_sector(run.phys_first), run_bytes, /*write=*/false);
      content_.read(device_offset(run.phys_first, 0), out.subspan(done, run_bytes));
      ++stats_.disk_runs;
      if (run.count > 1) stats_.coalesced_blocks += run.count;
      if (tier_) {
        tier_->note_miss_blocks(run.count);
        for (std::uint64_t b = 0; b < run.count; ++b) {
          tier_->insert(node.ino, node.generation, lbase + b);
        }
      }
    }
    done += run_bytes;
    lbase += run.count;
  }
  co_return done;
}

bool Ufs::fastpath_read_eligible(InodeNum ino, FileOffset off, ByteCount len) const {
  const Inode& node = inodes_.get(ino);
  if (off >= node.size || len == 0) return false;
  // A clamped (EOF-straddling) length degrades to the buffered path in
  // read(); require the full aligned extent to be inside the file.
  if (!aligned(off, len) || off + len > node.size) return false;
  const std::uint64_t first = off / params_.block_bytes;
  const std::uint64_t count = len / params_.block_bytes;
  return first + count <= node.blocks.size();
}

sim::Task<void> Ufs::read_sorted(std::span<BatchRead> items) {
  // Flatten every item to (physical block, destination) pairs, then walk
  // the disk once in ascending position: stripe files interleave their
  // blocks on the platter, so runs routinely cross file boundaries and
  // only a block-level merge can recover the streaming transfer.
  struct BlockRef {
    std::uint64_t phys;
    OutBytes dst;
    InodeNum ino;
    std::uint64_t generation;
    std::uint64_t lblock;
  };
  std::vector<BlockRef> refs;
  for (BatchRead& item : items) {
    const Inode& node = inodes_.get(item.ino);
    ++stats_.reads;
    ++stats_.fastpath_reads;
    stats_.bytes_read += item.len;
    item.got = item.len;
    const std::uint64_t first = item.off / params_.block_bytes;
    const std::uint64_t count = item.len / params_.block_bytes;
    for (std::uint64_t i = 0; i < count; ++i) {
      refs.push_back(BlockRef{node.blocks.at(first + i),
                              item.out.subspan(i * params_.block_bytes, params_.block_bytes),
                              node.ino, node.generation, first + i});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const BlockRef& a, const BlockRef& b) { return a.phys < b.phys; });

  std::size_t i = 0;
  while (i < refs.size()) {
    std::size_t j = i + 1;
    while (j < refs.size() && params_.coalesce &&
           refs[j].phys == refs[j - 1].phys + 1) {
      ++j;
    }
    const std::uint64_t run_count = refs[j - 1].phys - refs[i].phys + 1;
    bool warm = tier_ != nullptr;
    for (std::size_t k = i; warm && k < j; ++k) {
      warm = tier_->resident(refs[k].ino, refs[k].lblock);
    }
    if (warm) {
      for (std::size_t k = i; k < j; ++k) tier_->note_hit(refs[k].ino, refs[k].lblock);
      co_await tier_->read_hit(j - i);
    } else {
      co_await device_.transfer(block_to_sector(refs[i].phys),
                                run_count * params_.block_bytes, /*write=*/false);
      ++stats_.disk_runs;
      if (run_count > 1) stats_.coalesced_blocks += run_count;
      if (tier_) {
        tier_->note_miss_blocks(j - i);
        for (std::size_t k = i; k < j; ++k) {
          tier_->insert(refs[k].ino, refs[k].generation, refs[k].lblock);
        }
      }
    }
    for (std::size_t k = i; k < j; ++k) {
      content_.read(device_offset(refs[k].phys, 0), refs[k].dst);
    }
    i = j;
  }
}

sim::Task<ByteCount> Ufs::read_buffered(const Inode& node, FileOffset off, ByteCount len,
                                        OutBytes out) {
  ByteCount done = 0;
  while (done < len) {
    const FileOffset pos = off + done;
    const std::uint64_t lblock = pos / params_.block_bytes;
    const ByteCount in_block = pos % params_.block_bytes;
    const ByteCount n = std::min<ByteCount>(len - done, params_.block_bytes - in_block);
    const std::uint64_t phys = node.blocks.at(lblock);
    if (tier_ && !cache_.contains(phys)) {
      if (tier_->resident(node.ino, lblock)) {
        // Buffer-cache miss but tier-resident: serve from the second tier
        // at cache-device speed instead of filling from the RAID path.
        tier_->note_hit(node.ino, lblock);
        co_await tier_->read_hit(1);
        content_.read(device_offset(phys, in_block), out.subspan(done, n));
        if (cpu_) co_await cpu_->copy(n);
        done += n;
        continue;
      }
      tier_->note_miss_blocks(1);
    }
    co_await cache_.read(phys, in_block, out.subspan(done, n));
    // A block that just travelled the disk path populates the second tier
    // (write-through for reads: the fill is what makes it warm).
    if (tier_) tier_->insert(node.ino, node.generation, lblock);
    // The buffered path stages data in the cache and copies the requested
    // bytes to the caller's buffer; that copy burns I/O-node CPU.
    if (cpu_) co_await cpu_->copy(n);
    done += n;
  }
  if (params_.readahead_blocks > 0) {
    issue_readahead(node, (off + len - 1) / params_.block_bytes);
  }
  co_return done;
}

sim::Task<void> Ufs::readahead_one(std::uint64_t phys) {
  // Warm the cache; a concurrent demand read of the same block joins this
  // fill instead of issuing a second disk access.
  std::vector<std::byte> sink(1);  // copy one byte: negligible, keeps API uniform
  try {
    co_await cache_.read(phys, 0, sink);
  } catch (const fault::FaultError&) {
    // Readahead is best-effort: an injected disk fault here must not kill
    // the run (this is a detached process). The fault terminates in this
    // stat — a later demand read retries the block under its own envelope.
    ++stats_.readahead_errors;
    if (auto* a = sim_.auditor()) {
      a->on_fault_observed();
      a->on_fault_terminal();
    }
  }
}

void Ufs::issue_readahead(const Inode& node, std::uint64_t last_block) {
  for (std::uint32_t k = 1; k <= params_.readahead_blocks; ++k) {
    const std::uint64_t lblock = last_block + k;
    if (lblock >= node.blocks.size()) break;
    const std::uint64_t phys = node.blocks[lblock];
    if (cache_.contains(phys)) continue;
    ++stats_.readaheads_issued;
    sim_.spawn(readahead_one(phys));
  }
}

sim::Task<void> Ufs::write(InodeNum ino, FileOffset off, InBytes in, bool fastpath) {
  if (in.empty()) co_return;
  Inode& node = inodes_.get(ino);
  ensure_allocated(node, off + in.size());
  node.size = std::max<ByteCount>(node.size, off + in.size());
  ++stats_.writes;
  stats_.bytes_written += in.size();

  if (fastpath && aligned(off, in.size())) {
    ++stats_.fastpath_writes;
    const std::uint64_t first_block = off / params_.block_bytes;
    const std::uint64_t block_count = in.size() / params_.block_bytes;
    Runs runs;
    contiguous_runs(node, first_block, block_count, runs);
    ByteCount done = 0;
    std::uint64_t lbase = first_block;
    for (const Run& run : runs) {
      const ByteCount run_bytes = run.count * params_.block_bytes;
      content_.write(device_offset(run.phys_first, 0), in.subspan(done, run_bytes));
      // Fast-path writes bypass the cache; drop any stale cached copies.
      for (std::uint64_t b = 0; b < run.count; ++b) cache_.invalidate(run.phys_first + b);
      co_await device_.transfer(block_to_sector(run.phys_first), run_bytes, /*write=*/true);
      ++stats_.disk_runs;
      if (run.count > 1) stats_.coalesced_blocks += run.count;
      // Write-through population: written blocks are warm in the tier.
      if (tier_) {
        for (std::uint64_t b = 0; b < run.count; ++b) {
          tier_->insert(node.ino, node.generation, lbase + b);
        }
      }
      done += run_bytes;
      lbase += run.count;
    }
    co_return;
  }

  ByteCount done = 0;
  while (done < in.size()) {
    const FileOffset pos = off + done;
    const std::uint64_t lblock = pos / params_.block_bytes;
    const ByteCount in_block = pos % params_.block_bytes;
    const ByteCount n =
        std::min<ByteCount>(in.size() - done, params_.block_bytes - in_block);
    const std::uint64_t phys = node.blocks.at(lblock);
    co_await cache_.write(phys, in_block, in.subspan(done, n));
    if (tier_) tier_->insert(node.ino, node.generation, lblock);
    if (cpu_) co_await cpu_->copy(n);
    done += n;
  }
}

}  // namespace ppfs::ufs
