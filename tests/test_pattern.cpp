// Word-at-a-time pattern synthesis against the byte-at-a-time reference.
//
// workload::fill_pattern and find_pattern_mismatch assemble eight pattern
// bytes per 64-bit store. The reference is test_util.hpp's pattern_byte,
// which stays apart from src/, so a wrong word assembly cannot agree with
// itself. Word-assembly code is exactly what optimisers rewrite most
// aggressively, so these checks have to pass at every optimisation level;
// the Release build (-O3) runs them like any other ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "test_util.hpp"
#include "workload/generator.hpp"

namespace ppfs::workload {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;

constexpr std::uint64_t kTags[] = {0, 1, 7, 0xdeadbeefull,
                                   std::numeric_limits<std::uint64_t>::max()};

/// Every remainder mod 8, then starts on both sides of 2^32, 2^40 and
/// 2^64 - 8, where the offset product (and at the top the offset itself)
/// wraps.
std::vector<FileOffset> interesting_starts() {
  std::vector<FileOffset> starts;
  for (FileOffset r = 0; r < 8; ++r) starts.push_back(r);
  for (const FileOffset edge : {FileOffset{1} << 32, FileOffset{1} << 40}) {
    for (FileOffset d = 0; d < 9; ++d) {
      starts.push_back(edge - 9 + d);
      starts.push_back(edge + d);
    }
  }
  const FileOffset top = std::numeric_limits<FileOffset>::max() - 7;  // 2^64 - 8
  for (FileOffset d = 0; d < 9; ++d) starts.push_back(top - d);
  for (FileOffset d = 1; d < 8; ++d) starts.push_back(top + d);
  return starts;
}

TEST(PatternEquivalence, FillMatchesReferenceAtEveryStartForShortLengths) {
  constexpr std::size_t kGuard = 8;
  constexpr auto kGuardByte = std::byte{0xa5};
  for (const std::uint64_t tag : kTags) {
    for (const FileOffset start : interesting_starts()) {
      for (std::size_t len = 0; len <= 64; ++len) {
        // Guard bytes on both sides catch a word store that runs over.
        std::vector<std::byte> buf(len + 2 * kGuard, kGuardByte);
        fill_pattern(tag, start, std::span(buf).subspan(kGuard, len));
        ASSERT_TRUE(check_pattern(std::span(buf).subspan(kGuard, len), tag, start))
            << "tag " << tag << " start " << start << " len " << len;
        for (std::size_t g = 0; g < kGuard; ++g) {
          ASSERT_EQ(buf[g], kGuardByte) << "start " << start << " len " << len;
          ASSERT_EQ(buf[kGuard + len + g], kGuardByte) << "start " << start << " len " << len;
        }
      }
    }
  }
}

TEST(PatternEquivalence, FillMatchesReferenceOverAMegabytePlusSeven) {
  constexpr std::size_t kLen = (1u << 20) + 7;
  std::vector<std::byte> buf(kLen);
  for (const std::uint64_t tag : {std::uint64_t{1}, std::uint64_t{0xdeadbeef}}) {
    for (const FileOffset start :
         {FileOffset{0}, FileOffset{3}, (FileOffset{1} << 32) - 5, (FileOffset{1} << 40) + 1,
          std::numeric_limits<FileOffset>::max() - 7}) {
      fill_pattern(tag, start, buf);
      EXPECT_TRUE(check_pattern(buf, tag, start)) << "tag " << tag << " start " << start;
    }
  }
}

TEST(PatternEquivalence, VerifyAcceptsTheReferenceBytes) {
  for (const std::uint64_t tag : kTags) {
    for (const FileOffset start : interesting_starts()) {
      for (std::size_t len = 0; len <= 64; ++len) {
        const auto ref = make_pattern(tag, start, len);
        ASSERT_EQ(find_pattern_mismatch(tag, start, ref), kNoMismatch)
            << "tag " << tag << " start " << start << " len " << len;
      }
    }
  }
  const auto big = make_pattern(5, 11, (1u << 20) + 7);
  EXPECT_EQ(find_pattern_mismatch(5, 11, big), kNoMismatch);
}

TEST(PatternEquivalence, VerifyReportsEveryFlippedByteAtItsIndex) {
  constexpr std::size_t kLen = 4096 + 7;  // one whole verify block plus a ragged tail
  for (const FileOffset start : {FileOffset{3}, std::numeric_limits<FileOffset>::max() - 7}) {
    auto buf = make_pattern(9, start, kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      const std::byte orig = buf[i];
      buf[i] = orig ^ std::byte{0x01};
      ASSERT_EQ(find_pattern_mismatch(9, start, buf), i) << "start " << start;
      buf[i] = orig;
    }
    EXPECT_EQ(find_pattern_mismatch(9, start, buf), kNoMismatch);
  }
}

TEST(PatternEquivalence, VerifyReportsTheFirstOfSeveralMismatches) {
  auto buf = make_pattern(2, 100, 3 * 4096);
  buf[5000] ^= std::byte{0x80};
  buf[9000] ^= std::byte{0x80};
  EXPECT_EQ(find_pattern_mismatch(2, 100, buf), 5000u);
  // The wrong tag differs at the reference's own first differing byte.
  const auto other = make_pattern(3, 100, buf.size());
  std::size_t first = 0;
  while (other[first] == buf[first]) ++first;
  EXPECT_EQ(find_pattern_mismatch(3, 100, buf), first);
}

}  // namespace
}  // namespace ppfs::workload
