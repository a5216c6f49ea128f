// FlatMap — the open-addressing map behind per-fd prefetch state and the
// SimCheck auditor's frame tables.
//
// fd keys: the lookup/insert/erase contract the prefetch predictors and the
// adaptive controller rely on, and that open/close churn never grows the
// slot array. Address keys: forced collision runs that wrap past the end
// of the slot array, erase from every position of such a run
// (backward-shift deletion), growth, and a randomized differential check
// against std::unordered_map.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hpp"

namespace ppfs::sim {
namespace {

// --- fd keys ----------------------------------------------------------------

TEST(FdMap, EmptyMapFindsNothing) {
  FlatMap<int, int> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_FALSE(m.erase(7));  // no-op, must not crash
}

TEST(FdMap, InsertFindEraseRoundTrip) {
  FlatMap<int, int> m;
  m.get_or_insert(3) = 30;
  m.get_or_insert(5) = 50;
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 30);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_EQ(m.size(), 2u);

  EXPECT_TRUE(m.erase(3));
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m.size(), 1u);
  // Reinsert after an erase: the key gets a fresh value-initialized slot.
  EXPECT_EQ(m.get_or_insert(3), 0);
  m.get_or_insert(3) = 31;
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 31);
}

TEST(FdMap, SurvivesGrowthRehash) {
  FlatMap<int, std::uint64_t> m;
  for (int fd = 0; fd < 500; ++fd) m.get_or_insert(fd) = static_cast<std::uint64_t>(fd) * 7;
  EXPECT_EQ(m.size(), 500u);
  for (int fd = 0; fd < 500; ++fd) {
    ASSERT_NE(m.find(fd), nullptr) << fd;
    EXPECT_EQ(*m.find(fd), static_cast<std::uint64_t>(fd) * 7);
  }
  for (int fd = 0; fd < 500; fd += 2) m.erase(fd);
  EXPECT_EQ(m.size(), 250u);
  for (int fd = 1; fd < 500; fd += 2) ASSERT_NE(m.find(fd), nullptr) << fd;
  for (int fd = 0; fd < 500; fd += 2) EXPECT_EQ(m.find(fd), nullptr) << fd;
}

TEST(FdMap, TombstoneHeavyGrowthKeepsPow2Masking) {
  // Regression: probes mask with size-1, so every growth step must land on
  // a power of two. Drive many interleaved insert/erase cycles so growth
  // happens while erases keep reshaping the probe runs — with a non-pow2
  // slot count the probe mask skips slots and these lookups would miss
  // live keys (or get_or_insert would spin).
  FlatMap<int, int> m;
  for (int round = 0; round < 8; ++round) {
    const int base = round * 1000;
    for (int fd = base; fd < base + 600; ++fd) m.get_or_insert(fd) = fd;
    for (int fd = base; fd < base + 600; fd += 3) m.erase(fd);
  }
  std::size_t live = 0;
  for (int round = 0; round < 8; ++round) {
    const int base = round * 1000;
    for (int fd = base; fd < base + 600; ++fd) {
      if ((fd - base) % 3 == 0) {
        ASSERT_EQ(m.find(fd), nullptr) << fd;
      } else {
        ASSERT_NE(m.find(fd), nullptr) << fd;
        EXPECT_EQ(*m.find(fd), fd);
        ++live;
      }
    }
  }
  EXPECT_EQ(m.size(), live);
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
}

TEST(FdMap, OpenCloseChurnDoesNotLeak) {
  // A client never reuses an fd number, so per-fd state sees an endless
  // stream of fresh keys. The entry count must track live fds, and the
  // slot array must not grow either: erase leaves no tombstone behind.
  FlatMap<int, int> m;
  for (int fd = 0; fd < 10000; ++fd) {
    m.get_or_insert(fd) = fd;
    m.erase(fd);
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), (FlatMap<int, int>::kInitialSlots));
}

// --- address keys -----------------------------------------------------------

// Stand-ins for coroutine frames: 16-byte aligned, like arena blocks.
struct alignas(16) Frame {
  unsigned char bytes[16];
};
using AddrMap = FlatMap<const void*, int>;

// The first frame in `pool` (not yet in `used`) whose probe starts at
// `slot` of an initial-size map.
const void* frame_homed_at(const std::vector<Frame>& pool, std::size_t slot,
                           std::vector<const void*>& used) {
  const AddrMap probe;
  for (const Frame& f : pool) {
    const void* p = &f;
    if (probe.home_slot(p) != slot) continue;
    bool taken = false;
    for (const void* u : used) taken = taken || u == p;
    if (taken) continue;
    used.push_back(p);
    return p;
  }
  ADD_FAILURE() << "no frame in the pool hashes to slot " << slot;
  return nullptr;
}

TEST(FlatMapAddressKeys, EraseAnywhereInAWrappingRunKeepsLaterKeysFindable) {
  // Homes chosen so one probe run covers slots 13..15 and wraps to 0..4 of
  // the 16-slot table (8 keys: the most it holds before growing): several
  // keys share home 14, others are homed inside the run (15, 0, 1), so
  // backward shift must move some entries and leave others where they are.
  const std::size_t homes[] = {14, 14, 15, 13, 14, 0, 15, 1};
  std::vector<Frame> pool(4096);
  std::vector<const void*> keys;
  for (std::size_t h : homes) {
    const void* k = frame_homed_at(pool, h, keys);
    ASSERT_NE(k, nullptr);
  }
  ASSERT_EQ(keys.size(), std::size(homes));

  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    AddrMap m;
    for (std::size_t i = 0; i < keys.size(); ++i) m.get_or_insert(keys[i]) = static_cast<int>(i);
    ASSERT_EQ(m.capacity(), AddrMap::kInitialSlots) << "run must stay in the initial array";
    for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(m.home_slot(keys[i]), homes[i]);

    ASSERT_TRUE(m.erase(keys[victim]));
    EXPECT_FALSE(m.erase(keys[victim]));
    EXPECT_EQ(m.size(), keys.size() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) {
        EXPECT_EQ(m.find(keys[i]), nullptr) << "victim " << victim;
      } else {
        ASSERT_NE(m.find(keys[i]), nullptr) << "victim " << victim << " lost key " << i;
        EXPECT_EQ(*m.find(keys[i]), static_cast<int>(i));
      }
    }
    // The victim goes back in as a fresh entry; nothing else moves out of reach.
    EXPECT_EQ(m.get_or_insert(keys[victim]), 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_NE(m.find(keys[i]), nullptr) << "victim " << victim << " key " << i;
    }
  }
}

TEST(FlatMapAddressKeys, GrowthKeepsEveryKeyAndSizesToPeakLoad) {
  std::vector<Frame> pool(10000);
  AddrMap m;
  for (std::size_t i = 0; i < pool.size(); ++i) m.get_or_insert(&pool[i]) = static_cast<int>(i);
  EXPECT_EQ(m.size(), pool.size());
  // Smallest power of two that keeps 10,000 keys at or under 1/2 load.
  EXPECT_EQ(m.capacity(), 32768u);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_NE(m.find(&pool[i]), nullptr) << i;
    EXPECT_EQ(*m.find(&pool[i]), static_cast<int>(i));
  }
  for (std::size_t i = 0; i < pool.size(); i += 2) ASSERT_TRUE(m.erase(&pool[i]));
  EXPECT_EQ(m.size(), pool.size() / 2);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(m.find(&pool[i]) != nullptr, i % 2 == 1) << i;
  }
  // Refilling to the old peak reuses the array instead of growing it.
  for (std::size_t i = 0; i < pool.size(); i += 2) m.get_or_insert(&pool[i]);
  EXPECT_EQ(m.capacity(), 32768u);
}

TEST(FlatMapAddressKeys, RandomizedDifferentialAgainstUnorderedMap) {
  std::vector<Frame> pool(2048);
  std::mt19937_64 rng(0x5eed);
  AddrMap m;
  std::unordered_map<const void*, int> ref;
  std::size_t peak = 0;
  for (int op = 0; op < 100000; ++op) {
    const void* k = &pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0:
      case 1: {
        const int v = static_cast<int>(rng() % 1000);
        m.get_or_insert(k) = v;
        ref[k] = v;
        break;
      }
      case 2:
        ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << op;
        break;
      default: {
        const int* got = m.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
        if (got) {
          ASSERT_EQ(*got, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "op " << op;
    if (ref.size() > peak) peak = ref.size();
  }
  for (const Frame& f : pool) {
    const int* got = m.find(&f);
    const auto it = ref.find(&f);
    ASSERT_EQ(got != nullptr, it != ref.end());
    if (got) {
      EXPECT_EQ(*got, it->second);
    }
  }
  // The array is sized by the peak live count alone.
  std::size_t want = AddrMap::kInitialSlots;
  while (peak * 2 > want) want *= 2;
  EXPECT_EQ(m.capacity(), want);
}

}  // namespace
}  // namespace ppfs::sim
