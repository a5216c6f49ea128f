// FlatMap — an open-addressing hash map from small keys (integers or
// addresses) to per-key state: linear probing with Robin Hood ordering
// and backward-shift deletion.
//
// Two hot paths keep per-key state in it:
//  * every prefetch predictor and the adaptive controller consult per-fd
//    state on every read (keyed by file descriptor);
//  * the UFS content store finds a chunk's bytes on every read and write
//    (keyed by chunk index).
// (The SimCheck auditor's per-frame state, once two address-keyed tables
// here, now sits in the FrameArena block header in front of each frame.)
// A node-based std::unordered_map allocates a node per insert and frees it
// per erase; here insert and erase never touch the allocator except when
// the table grows.
//
// Layout: one control byte per slot — 0 for empty, else 1 + the entry's
// distance from its home slot — beside a dense array of {key, value}
// slots; an empty value type takes no room. Entries of a probe run stay
// sorted by home slot (Robin Hood), so a probe reads a key only where the
// resident shares its home, and a miss stops at the first resident that is
// closer to its own home. The table grows past 1/2 load, which keeps
// probe runs short.
//
// erase() shifts the rest of the probe run back over the hole instead of
// leaving a tombstone, so the slot count tracks the peak number of live
// keys, never the number of keys ever inserted (a client that never reuses
// an fd number would otherwise grow the table on every close). Inserts and
// erases move entries: any pointer or reference from find() or
// get_or_insert() is invalidated by the next erase() or get_or_insert().
//
// Determinism: there is deliberately no iteration API. Slot order depends
// on the hash of the keys (for address keys, on the allocator), and the
// det-unsafe-source lint cannot see an ordering leak through a custom
// table, so the only observable behavior is per-key lookup.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppfs::sim {

template <typename Key, typename T>
class FlatMap {
  static_assert(std::is_integral_v<Key> || std::is_pointer_v<Key>,
                "FlatMap keys are integers or addresses");

 public:
  // ppfs::hot — exact-key probe on per-read and per-event paths: scans
  // control bytes, no allocation, no stdlib call deeper than operator[]
  /// Pointer to the value for `key`, or nullptr when absent. Never inserts.
  T* find(Key key) noexcept {
    if (count_ == 0) return nullptr;
    const Probe p = probe(key);
    return p.found ? &slots_[p.slot].value : nullptr;
  }
  const T* find(Key key) const noexcept { return const_cast<FlatMap*>(this)->find(key); }
  // ppfs::endhot

  /// Value for `key`, inserting a value-initialized one if absent. Grows
  /// (rehashes) when the insert would push the load past 1/2.
  T& get_or_insert(Key key) {
    if (ctrl_.empty()) rehash(kInitialSlots);
    for (;;) {
      const Probe p = probe(key);
      if (p.found) return slots_[p.slot].value;
      if ((count_ + 1) * 2 <= ctrl_.size() && insert_at(p.slot, p.dist, key)) {
        ++count_;
        return slots_[p.slot].value;
      }
      rehash(ctrl_.size() * 2);
    }
  }

  /// Drop `key`'s entry; returns whether there was one. The rest of its
  /// probe run shifts back one slot, up to the first entry already at its
  /// home, so no tombstone is left.
  bool erase(Key key) noexcept {
    if (count_ == 0) return false;
    const Probe p = probe(key);
    if (!p.found) return false;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = p.slot;
    for (std::size_t next = (i + 1) & mask; ctrl_[next] > 1; next = (next + 1) & mask) {
      ctrl_[i] = static_cast<std::uint8_t>(ctrl_[next] - 1);
      slots_[i] = std::move(slots_[next]);
      i = next;
    }
    ctrl_[i] = kEmpty;
    slots_[i] = Slot{};
    --count_;
    return true;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Slots allocated (0 until the first insert). Grows only with the peak
  /// number of live keys.
  std::size_t capacity() const noexcept { return ctrl_.size(); }
  /// The slot a probe for `key` starts at in the current table (in the
  /// initial one before the first insert), for tests that build collision
  /// runs.
  std::size_t home_slot(Key key) const noexcept {
    std::uint64_t bits;
    if constexpr (std::is_pointer_v<Key>) {
      bits = reinterpret_cast<std::uintptr_t>(key);
    } else {
      bits = static_cast<std::make_unsigned_t<Key>>(key);
    }
    // Fibonacci hashing: the top bits of the product depend on every key
    // bit, which spreads both dense fds and 16-byte-aligned addresses.
    return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  static constexpr std::size_t kInitialSlots = 16;

 private:
  struct Slot {
    Key key{};
    [[no_unique_address]] T value{};
  };
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint32_t kMaxDist = 255;  // largest encodable distance code
  static_assert(std::has_single_bit(kInitialSlots),
                "probe masking requires a power-of-two slot count");

  struct Probe {
    std::size_t slot;    // the key's slot, or the slot it would be inserted at
    std::uint32_t dist;  // control-byte code for `slot` (1 + distance from home)
    bool found;
  };

  /// Walk `key`'s probe run. Requires a non-empty table. The run is sorted
  /// by home slot, so the walk stops at the first resident closer to its
  /// own home than the key would be, and compares keys only with
  /// residents that share the key's home.
  Probe probe(Key key) const noexcept {
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = home_slot(key);
    for (std::uint32_t dist = 1;; ++dist, i = (i + 1) & mask) {
      const std::uint32_t c = ctrl_[i];
      if (c < dist) return Probe{i, dist, false};
      if (c == dist && slots_[i].key == key) return Probe{i, dist, true};
    }
  }

  /// Put `key` at slot i (distance code `dist`), moving the rest of the run
  /// forward one slot. Returns false, changing nothing, when a distance
  /// would overflow its control byte.
  bool insert_at(std::size_t i, std::uint32_t dist, Key key) {
    if (dist > kMaxDist) return false;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t end = i;
    for (; ctrl_[end] != kEmpty; end = (end + 1) & mask) {
      if (ctrl_[end] == kMaxDist) return false;
    }
    for (std::size_t j = end; j != i;) {
      const std::size_t prev = (j - 1) & mask;
      ctrl_[j] = static_cast<std::uint8_t>(ctrl_[prev] + 1);
      slots_[j] = std::move(slots_[prev]);
      j = prev;
    }
    ctrl_[i] = static_cast<std::uint8_t>(dist);
    slots_[i] = Slot{key, T{}};
    return true;
  }

  void rehash(std::size_t new_slots) {
    // Probing masks with size-1, which is only a valid modulus for powers
    // of two: any other size silently skips slots.
    assert(std::has_single_bit(new_slots) && new_slots >= kInitialSlots);
    std::vector<std::uint8_t> old_ctrl =
        std::exchange(ctrl_, std::vector<std::uint8_t>(new_slots, kEmpty));
    std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(new_slots));
    shift_ = 64 - std::countr_zero(new_slots);
    count_ = 0;
    for (std::size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] != kEmpty) get_or_insert(old_slots[j].key) = std::move(old_slots[j].value);
    }
  }

  std::vector<std::uint8_t> ctrl_;  // per slot: kEmpty, or 1 + distance from home
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  int shift_ = 64 - std::countr_zero(kInitialSlots);  // 64 - log2(slot count)
};

}  // namespace ppfs::sim
