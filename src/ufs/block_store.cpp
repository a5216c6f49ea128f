#include "ufs/block_store.hpp"

#include <algorithm>
#include <cstring>

namespace ppfs::ufs {

void ContentStore::write(FileOffset offset, std::span<const std::byte> data) {
  FileOffset pos = offset;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const ByteCount in_chunk = pos % chunk_;
    const std::size_t n =
        std::min<std::size_t>(data.size() - done, static_cast<std::size_t>(chunk_ - in_chunk));
    auto& chunk = chunks_[chunk_idx];
    if (!chunk) {
      // A fresh chunk: zero only what this write leaves uncovered (unwritten
      // bytes read back as zero); the copy below fills the rest.
      chunk = std::make_unique_for_overwrite<std::byte[]>(chunk_);
      std::memset(chunk.get(), 0, in_chunk);
      std::memset(chunk.get() + in_chunk + n, 0, chunk_ - in_chunk - n);
    }
    std::memcpy(chunk.get() + in_chunk, data.data() + done, n);
    pos += n;
    done += n;
  }
}

void ContentStore::read(FileOffset offset, std::span<std::byte> out) const {
  FileOffset pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const ByteCount in_chunk = pos % chunk_;
    const std::size_t n =
        std::min<std::size_t>(out.size() - done, static_cast<std::size_t>(chunk_ - in_chunk));
    auto it = chunks_.find(chunk_idx);
    if (it == chunks_.end()) {
      std::memset(out.data() + done, 0, n);
    } else {
      std::memcpy(out.data() + done, it->second.get() + in_chunk, n);
    }
    pos += n;
    done += n;
  }
}

}  // namespace ppfs::ufs
