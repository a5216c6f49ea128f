#include "ufs/block_store.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

// Its poison macros compile to nothing without ASan.
#include <sanitizer/asan_interface.h>

namespace ppfs::ufs {

namespace {

constexpr std::size_t kChunkAlign = 64;

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

/// `bytes` (a multiple of the slab size) of fresh anonymous memory on a
/// slab boundary, so the kernel can back it with 2 MiB pages. mmap only
/// promises page alignment: map one slab extra and unmap the two ends.
std::byte* map_slab(std::size_t bytes) {
  constexpr std::size_t kAlign = ContentArena::kSlabBytes;
  const std::size_t span = bytes + kAlign;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t base = (start + kAlign - 1) & ~(kAlign - 1);
  const std::size_t head = base - start;
  if (head != 0) ::munmap(raw, head);
  ::munmap(reinterpret_cast<void*>(base + bytes), span - head - bytes);
  // Advice only: where it fails the slab stays on 4 KiB pages.
  ::madvise(reinterpret_cast<void*>(base), bytes, MADV_HUGEPAGE);
  return reinterpret_cast<std::byte*>(base);
}

/// Give `bytes` at `base` back to the kernel.
void unmap_slab(std::byte* base, std::size_t bytes) noexcept {
  // munmap does not clear ASan's shadow, and a later mapping may reuse
  // the range.
  ASAN_UNPOISON_MEMORY_REGION(base, bytes);
  ::munmap(base, bytes);
}

/// Set on a thread once its SlabList has unmapped its slabs at thread exit.
/// Trivially destructible, so it stays readable while later thread-exit and
/// static destructors run.
constinit thread_local bool t_slab_list_gone = false;

/// The calling thread's free slabs, which outlive the arenas that mapped
/// them (ContentArena). Each is linked to the next through its own first
/// word, so returning a slab allocates nothing. Under ASan a pooled slab
/// is poisoned but for that word, so a store that writes through a dead
/// mount's chunk is reported.
class SlabList {
 public:
  /// The calling thread's list, or nullptr once it was torn down: an arena
  /// that dies later (a static one) then unmaps its own slabs.
  static SlabList* local() noexcept {
    if (t_slab_list_gone) return nullptr;
    thread_local SlabList list;
    return &list;
  }

  ~SlabList() {
    while (std::byte* slab = pop()) unmap_slab(slab, ContentArena::kSlabBytes);
    t_slab_list_gone = true;
  }

  void push(std::byte* slab) noexcept {
    ASAN_POISON_MEMORY_REGION(slab, ContentArena::kSlabBytes);
    ASAN_UNPOISON_MEMORY_REGION(slab, sizeof head_);
    std::memcpy(slab, &head_, sizeof head_);
    head_ = slab;
  }

  /// The most recently pushed slab, or nullptr when the list is empty.
  std::byte* pop() noexcept {
    std::byte* slab = head_;
    if (slab != nullptr) std::memcpy(&head_, slab, sizeof head_);
    return slab;
  }

 private:
  std::byte* head_ = nullptr;
};

/// A slab of a dying arena goes onto the thread's free list, unless it is
/// larger than a slab or the list is gone; then it is unmapped.
void release_slab(std::byte* base, std::size_t bytes) noexcept {
  SlabList* list = bytes == ContentArena::kSlabBytes ? SlabList::local() : nullptr;
  if (list != nullptr) {
    list->push(base);
  } else {
    unmap_slab(base, bytes);
  }
}

/// Copy `n` bytes from `src` to chunk memory at `dst`. Every whole 64-byte
/// line of the destination is written with streaming stores, which skip
/// the read-for-ownership an ordinary store pays on a cold line: the image
/// is far larger than the caches and is not read again soon. The bytes
/// before the first line boundary and after the last go by memcpy. Without
/// SSE2 everything goes by memcpy, and so does a copy into poisoned memory
/// under ASan, which does not see streaming stores, so the stray write is
/// reported.
void stream_copy(std::byte* dst, const std::byte* src, std::size_t n) noexcept {
#if defined(__SSE2__)
#if defined(__SANITIZE_ADDRESS__)
  if (__asan_region_is_poisoned(dst, n) != nullptr) {
    std::memcpy(dst, src, n);
    return;
  }
#endif
  constexpr std::size_t kLine = 64;
  const auto to_line = static_cast<std::size_t>(-reinterpret_cast<std::uintptr_t>(dst) % kLine);
  const std::size_t head = std::min(n, to_line);
  const std::size_t lines = (n - head) / kLine;
  std::memcpy(dst, src, head);
  dst += head;
  src += head;
  for (std::size_t i = 0; i < lines; ++i, dst += kLine, src += kLine) {
    const auto* s = reinterpret_cast<const __m128i*>(src);
    auto* d = reinterpret_cast<__m128i*>(dst);
    const __m128i a = _mm_loadu_si128(s), b = _mm_loadu_si128(s + 1),
                  c = _mm_loadu_si128(s + 2), e = _mm_loadu_si128(s + 3);
    _mm_stream_si128(d, a);
    _mm_stream_si128(d + 1, b);
    _mm_stream_si128(d + 2, c);
    _mm_stream_si128(d + 3, e);
  }
  std::memcpy(dst, src, n - head - lines * kLine);
  // Streaming stores are weakly ordered: fence them before anything later.
  if (lines != 0) _mm_sfence();
#else
  std::memcpy(dst, src, n);
#endif
}

/// Copy `src`'s runs, in position order, to `dst` by stream_copy.
void stream_to(InBytes src, std::byte* dst) noexcept {
  src.for_each_run([&dst](const std::byte* p, ByteCount n) {
    stream_copy(dst, p, static_cast<std::size_t>(n));
    dst += n;
  });
}

/// True when every byte of `s` is zero. Pattern data pays one compare:
/// its first word is tested alone. Zeros are then OR-ed 64 bytes at a
/// time, a loop the compiler vectorises, with an exit after each block.
bool all_zero(std::span<const std::byte> s) {
  const auto word = [](const std::byte* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  };
  const std::byte* p = s.data();
  const std::byte* const end = p + s.size();
  if (s.size() >= sizeof(std::uint64_t) && word(p) != 0) return false;
  for (; end - p >= 64; p += 64) {
    std::uint64_t any = 0;
    for (int k = 0; k < 8; ++k) any |= word(p + 8 * k);
    if (any != 0) return false;
  }
  return std::all_of(p, end, [](std::byte b) { return b == std::byte{0}; });
}

/// True when every byte of the view is zero. Runs after the first non-zero
/// one are not read.
bool all_zero(InBytes s) {
  bool zero = true;
  s.for_each_run([&zero](const std::byte* p, ByteCount n) {
    if (zero) zero = all_zero(std::span<const std::byte>(p, n));
  });
  return zero;
}

}  // namespace

ContentArena::~ContentArena() {
  for (const Slab& s : slabs_) release_slab(s.base, s.bytes);
}

std::byte* ContentArena::allocate(std::size_t bytes) {
  const std::size_t take = round_up(bytes, kChunkAlign);
  if (static_cast<std::size_t>(end_ - next_) < take) {
    const std::size_t slab_bytes = round_up(take, kSlabBytes);
    std::byte* base = nullptr;
    if (slab_bytes == kSlabBytes) {
      if (SlabList* list = SlabList::local()) base = list->pop();
    }
    if (base == nullptr) base = map_slab(slab_bytes);
    try {
      slabs_.push_back(Slab{base, slab_bytes});
    } catch (...) {
      release_slab(base, slab_bytes);
      throw;
    }
    // Under ASan, bytes not yet handed out are poisoned, so an overrun past
    // the last chunk is reported.
    ASAN_POISON_MEMORY_REGION(base, slab_bytes);
    next_ = base;
    end_ = base + slab_bytes;
  }
  std::byte* p = next_;
  next_ += take;
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  return p;
}

ContentStore::ContentStore(ContentArena& arena, ByteCount chunk_bytes)
    : arena_(arena), chunk_(chunk_bytes) {}

void ContentStore::write(FileOffset offset, InBytes data) {
  FileOffset pos = offset;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const ByteCount in_chunk = pos % chunk_;
    const std::size_t n =
        std::min<std::size_t>(data.size() - done, static_cast<std::size_t>(chunk_ - in_chunk));
    const InBytes src = data.subspan(done, n);
    if (std::byte** stored = chunks_.find(chunk_idx)) {
      stream_to(src, *stored + in_chunk);
    } else if (!all_zero(src)) {
      // A fresh chunk may lie in a slab a dead mount used, so the bytes
      // this first write leaves uncovered are zeroed. Every write the full
      // stack makes covers whole blocks, and a chunk is a block, so there
      // both ranges are empty.
      std::byte* chunk = arena_.allocate(static_cast<std::size_t>(chunk_));
      std::memset(chunk, 0, in_chunk);
      stream_to(src, chunk + in_chunk);
      std::memset(chunk + in_chunk + n, 0, chunk_ - in_chunk - n);
      chunks_.get_or_insert(chunk_idx) = chunk;
    }
    pos += n;
    done += n;
  }
}

void ContentStore::read(FileOffset offset, OutBytes out) const {
  FileOffset pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const ByteCount in_chunk = pos % chunk_;
    const std::size_t n =
        std::min<std::size_t>(out.size() - done, static_cast<std::size_t>(chunk_ - in_chunk));
    const OutBytes dst = out.subspan(done, n);
    if (const std::byte* const* stored = chunks_.find(chunk_idx)) {
      dst.copy_from(*stored + in_chunk);
    } else {
      dst.fill_zero();
    }
    pos += n;
    done += n;
  }
}

void ContentStore::discard(FileOffset offset, ByteCount bytes) {
  FileOffset pos = offset;
  ByteCount done = 0;
  while (done < bytes) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const ByteCount in_chunk = pos % chunk_;
    const ByteCount n = std::min<ByteCount>(bytes - done, chunk_ - in_chunk);
    if (std::byte** stored = chunks_.find(chunk_idx)) {
      // A whole chunk's memory stays in the arena until the mount dies.
      if (n == chunk_) {
        chunks_.erase(chunk_idx);
      } else {
        std::memset(*stored + in_chunk, 0, n);
      }
    }
    pos += n;
    done += n;
  }
}

}  // namespace ppfs::ufs
