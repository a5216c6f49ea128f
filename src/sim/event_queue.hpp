// EventQueue: the kernel's owned time-ordered queue, a monotone radix heap.
//
// The kernel never schedules an event before `now` (Simulation clamps to
// it), and `now` is the time of the last dispatched event. So every pending
// time is at least that time, the *origin*, and a radix heap over the bits
// of the time orders them without comparing events with each other.
//
// Times are keyed by their IEEE-754 bit patterns: non-negative doubles
// order identically to their bit patterns (-0.0 is canonicalized to +0.0 on
// push; NaN and negative times are caller bugs, asserted in debug builds).
// An event goes to bucket bit_width(time_bits ^ origin_bits), the position
// of the highest bit in which its time differs from the origin:
//
//   bucket 0     events at the origin, drained first-in, first-out
//   bucket k>0   events that agree with the origin above bit k-1 and exceed
//                it at bit k-1, so every event in bucket k is later than
//                every event in buckets 0..k-1
//
// Pop takes bucket 0's head. When bucket 0 is empty, the minimum of the
// lowest non-empty bucket becomes the origin and that bucket's events are
// redistributed, in their stored order, into the buckets below it (which
// are all empty): each lands strictly lower, the new minimum's in bucket 0.
// A bucket that holds one time only becomes bucket 0 whole.
// An event moves down at most 63 times over its life, and in practice a
// few; a pop costs a mask scan and a walk of one bucket, not a heap sift
// of unpredictable compares.
//
// Dispatch order is exactly the kernel's determinism contract, earliest
// time first and ties by schedule sequence. Sequences rise with every push,
// so each bucket's stored order keeps events of equal time in sequence
// order: a push appends the largest sequence yet, and a redistribution
// appends a bucket's events in stored order into empty buckets.
//
// Each bucket is a chain of fixed-size chunks drawn from one pool with a
// free list. The pool grows only when its free list and its newest block
// are both used up, that is with the number of pending events, and
// reserve() makes the first block in one allocation. Payloads (a coroutine
// handle or a trivially-relocatable SmallFn) move as raw words; nothing is
// allocated once the pool has grown to the run's high-water mark.
//
// top_time() peeks without moving the origin (each bucket keeps its
// minimum), so a run(until) that stops early leaves the queue ready for an
// event scheduled between `now` and the pending minimum.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "sim/small_fn.hpp"
#include "sim/types.hpp"

namespace ppfs::sim {

class EventQueue {
 public:
  /// A popped event: exactly one of `h` (coroutine resumption) or `fn`
  /// (plain callback) is engaged; `h` is null for callbacks.
  struct Entry {
    SimTime t = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> h{};
    SmallFn fn;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    clear();
    while (blocks_ != nullptr) {
      Block* older = blocks_->older;
      ::operator delete(blocks_);
      blocks_ = older;
    }
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  /// High-water mark of pending events over the queue's lifetime (clear()
  /// keeps it: it is the run's depth, not the instantaneous one). The scale
  /// bench gates on this to prove deep-backlog runs stay tractable.
  std::size_t peak_pending() const noexcept { return peak_count_; }

  /// Bytes of owned storage: the chunk pool's blocks plus the bucket table.
  /// The pool only grows, so this is the footprint high-water the queue
  /// will hold until destruction.
  std::size_t memory_bytes() const noexcept { return block_bytes_ + sizeof(buckets_); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime top_time() const noexcept {
    assert(count_ != 0);
    const std::uint64_t tb = (mask_ & 1) != 0 ? origin_ : buckets_[lowest(mask_)].min;
    return std::bit_cast<SimTime>(tb);
  }

  /// Make room for `n` pending events, in any arrangement over the
  /// buckets, in one allocation.
  void reserve(std::size_t n) {
    const std::size_t want = n / kChunkCap + kBuckets + 1;
    if (want > pool_chunks_) add_block(want - pool_chunks_);
  }

  // ppfs::hot — per-event push/pop pair; every simulated event passes through here
  /// Queue an event. Precondition: `t` is no earlier than the last popped
  /// event's time (Simulation's `now`), or any time after clear().
  void push(SimTime t, std::uint64_t seq, std::coroutine_handle<> h) {
    push_impl(t, seq, reinterpret_cast<std::uintptr_t>(h.address()), SmallFn{});
  }

  void push(SimTime t, std::uint64_t seq, SmallFn fn) {
    push_impl(t, seq, 0, std::move(fn));
  }

  /// Remove and return the earliest event. Precondition: !empty().
  Entry pop() {
    assert(count_ != 0);
    if ((mask_ & 1) == 0) refill();
    --count_;
    Bucket& b = buckets_[0];
    Chunk* c = b.head;
    Ev* ev = c->at(head_idx_++);
    Entry e{std::bit_cast<SimTime>(origin_), ev->seq,
            std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev->h)),
            std::move(ev->fn)};
    ev->~Ev();
    if (head_idx_ == c->n) {
      // The head chunk is drained: a full chunk hands over to its
      // successor, the tail chunk empties the bucket.
      b.head = c->next;
      head_idx_ = 0;
      free_chunk(c);
      if (b.head == nullptr) {
        b.tail = nullptr;
        mask_ &= ~std::uint64_t{1};
      }
    }
    return e;
  }
  // ppfs::endhot

  /// Drop every pending event (callback state is destroyed; queued
  /// coroutine handles are simply forgotten — teardown owns their frames).
  /// The pool keeps its blocks, and the next push may be at any time.
  void clear() noexcept {
    for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
      const int k = lowest(m);
      std::uint32_t first = k == 0 ? head_idx_ : 0;  // bucket 0's popped slots are dead
      for (Chunk* c = buckets_[k].head; c != nullptr;) {
        for (std::uint32_t i = first; i < c->n; ++i) c->at(i)->~Ev();
        first = 0;
        Chunk* next = c->next;
        free_chunk(c);
        c = next;
      }
      buckets_[k] = Bucket{};
    }
    mask_ = 0;
    head_idx_ = 0;
    origin_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::uint64_t kNegZeroTb = 0x8000000000000000ull;
  static constexpr std::uint64_t kNoTime = ~std::uint64_t{0};  // above every time
  static constexpr int kBuckets = 64;                           // bit_width(xor) of 63-bit keys
  static constexpr std::uint32_t kChunkCap = 13;                // 16 + 13 * 48 = 640 bytes
  static constexpr std::size_t kMinBlockChunks = 64;
  static constexpr std::size_t kMaxBlockChunks = 4096;

  struct Ev {
    std::uint64_t tb;  // time as ordered bit pattern
    std::uint64_t seq;
    std::uintptr_t h;
    SmallFn fn;
  };
  // Slots are raw storage: an Ev lives in a slot from its append until it
  // is popped or moved to another bucket.
  struct Chunk {
    Chunk* next;
    std::uint32_t n;  // slots filled
    alignas(Ev) unsigned char slots[kChunkCap * sizeof(Ev)];
    void* slot(std::uint32_t i) noexcept { return slots + i * sizeof(Ev); }
    Ev* at(std::uint32_t i) noexcept { return std::launder(static_cast<Ev*>(slot(i))); }
  };
  // Bucket 0's bounds go stale and are never read: its time is the origin.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint64_t min = kNoTime;  // smallest time bits in the bucket
    std::uint64_t max = 0;        // largest
  };
  // A pool block: this header, then its chunks.
  struct Block {
    Block* older;
  };
  static_assert(sizeof(Block) % alignof(Chunk) == 0);

  int bucket_of(std::uint64_t tb) const noexcept { return std::bit_width(tb ^ origin_); }
  // The lowest set bit of a non-zero mask. The & is a no-op there; it
  // shows the compiler the index is in range, which -Warray-bounds at -O3
  // cannot infer from the caller's precondition.
  static int lowest(std::uint64_t m) noexcept { return std::countr_zero(m) & (kBuckets - 1); }

  void push_impl(SimTime t, std::uint64_t seq, std::uintptr_t h, SmallFn fn) {
    assert(t == t && "EventQueue: NaN event time");
    std::uint64_t tb = std::bit_cast<std::uint64_t>(t);
    if (tb == kNegZeroTb) tb = 0;  // -0.0 sorts (and digests) as +0.0
    assert(tb < kNegZeroTb && "EventQueue: negative event time");
    assert(tb >= origin_ && "EventQueue: event earlier than the last popped one");
    ++count_;
    if (count_ > peak_count_) peak_count_ = count_;
    append(bucket_of(tb), tb, seq, h, std::move(fn));
  }

  void append(int k, std::uint64_t tb, std::uint64_t seq, std::uintptr_t h, SmallFn&& fn) {
    Bucket& b = buckets_[k];
    Chunk* c = b.tail;
    if (c == nullptr || c->n == kChunkCap) {
      Chunk* fresh = alloc_chunk();
      if (c == nullptr) {
        b.head = fresh;
      } else {
        c->next = fresh;
      }
      b.tail = c = fresh;
    }
    ::new (c->slot(c->n++)) Ev{tb, seq, h, std::move(fn)};
    b.min = std::min(b.min, tb);
    b.max = std::max(b.max, tb);
    mask_ |= std::uint64_t{1} << k;
  }

  // Bucket 0 is empty: make the lowest non-empty bucket's minimum the
  // origin and spread that bucket's events, in stored order, below it.
  void refill() {
    const int k = lowest(mask_);
    Bucket& src = buckets_[k];
    Chunk* c = src.head;
    origin_ = src.min;
    head_idx_ = 0;
    if (src.min == src.max) {
      // One time only (a lone event, or a batch of ties): the whole chain
      // becomes bucket 0 as it stands.
      buckets_[0] = src;
      src = Bucket{};
      mask_ = (mask_ & (mask_ - 1)) | 1;
      return;
    }
    src = Bucket{};
    mask_ &= mask_ - 1;
    while (c != nullptr) {
      for (std::uint32_t i = 0; i < c->n; ++i) {
        Ev* ev = c->at(i);
        append(bucket_of(ev->tb), ev->tb, ev->seq, ev->h, std::move(ev->fn));
        ev->~Ev();
      }
      Chunk* next = c->next;
      free_chunk(c);
      c = next;
    }
  }

  Chunk* alloc_chunk() {
    Chunk* c = free_;
    if (c != nullptr) {
      free_ = c->next;
    } else {
      if (bump_ == bump_end_) add_block(std::clamp(pool_chunks_, kMinBlockChunks, kMaxBlockChunks));
      c = ::new (static_cast<void*>(bump_++)) Chunk;
    }
    c->next = nullptr;
    c->n = 0;
    return c;
  }

  void free_chunk(Chunk* c) noexcept {
    c->next = free_;
    free_ = c;
  }

  // One allocation of `nchunks` chunks. Chunks are handed out from the
  // newest block by bumping, so a block's memory is first touched when
  // the queue first needs it. Leftovers of the previous block go to the
  // free list.
  void add_block(std::size_t nchunks) {
    while (bump_ != bump_end_) free_chunk(::new (static_cast<void*>(bump_++)) Chunk);
    const std::size_t bytes = sizeof(Block) + nchunks * sizeof(Chunk);
    auto* blk = static_cast<Block*>(::operator new(bytes));
    blk->older = blocks_;
    blocks_ = blk;
    bump_ = reinterpret_cast<Chunk*>(blk + 1);
    bump_end_ = bump_ + nchunks;
    pool_chunks_ += nchunks;
    block_bytes_ += bytes;
  }

  Bucket buckets_[kBuckets];
  std::uint64_t mask_ = 0;     // bit k set: bucket k is non-empty
  std::uint64_t origin_ = 0;   // time bits of the last popped event
  std::uint32_t head_idx_ = 0; // bucket 0's next slot in its head chunk
  Chunk* free_ = nullptr;
  Chunk* bump_ = nullptr;
  Chunk* bump_end_ = nullptr;
  Block* blocks_ = nullptr;    // newest first
  std::size_t pool_chunks_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t count_ = 0;
  std::size_t peak_count_ = 0;
};

}  // namespace ppfs::sim
