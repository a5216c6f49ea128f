// Pattern synthesis against the byte-at-a-time reference.
//
// workload::fill_pattern and find_pattern_mismatch run the fastest kernel
// the CPU supports: a vector kernel that makes 64 (AVX-512) or 32 (AVX2)
// pattern bytes per step, or the portable loop that assembles eight per
// 64-bit word. The reference is test_util.hpp's pattern_byte, which stays
// apart from src/, so a wrong assembly cannot agree with itself.
// PatternEquivalence checks the public functions; PatternKernel checks
// every kernel compiled into the build, reached through
// detail::pattern_kernels(), on whatever CPU runs the suite (a kernel the
// CPU cannot run reads Skipped in ctest). Word and vector assembly is
// exactly what optimisers rewrite most aggressively, so these checks have
// to pass at every optimisation level; the Release build (-O3) runs them
// like any other ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_kernel.hpp"

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

// ---- Every compiled kernel ------------------------------------------------

}  // namespace

namespace detail {
// ctest names each parameterised case after this print. gtest's default is a
// byte dump of the kernel's pointers, which ASLR moves on every run.
void PrintTo(const PatternKernel& k, std::ostream* os) { *os << k.name; }
}  // namespace detail

namespace {

using detail::PatternKernel;

class PatternKernelTest : public ::testing::TestWithParam<PatternKernel> {
 protected:
  void SetUp() override {
    if (!GetParam().runnable) GTEST_SKIP() << GetParam().name << " needs an ISA this CPU lacks";
  }
};

/// Longest window the alignment sweeps use: two 256-byte verify groups of
/// four 64-byte vectors, one more vector and a ragged byte, so every loop
/// of every kernel runs more than once and hands over to the next.
constexpr std::size_t kMaxLen = 577;
constexpr std::uint64_t kTag = 0xdeadbeef;  // pattern_byte(kTag, 0) is not 0
constexpr auto kGuardByte = std::byte{0xa5};

/// A 64-byte-aligned arena. Windows start at kWindow + misalignment, and
/// every byte outside the window is a guard.
struct Arena {
  static constexpr std::size_t kWindow = 64;
  alignas(64) std::array<std::byte, kWindow + 64 + kMaxLen + 64> bytes;
};

/// Fills a window of `len` bytes at `mis` bytes past a 64-byte boundary and
/// checks it against the reference and the guards around it.
::testing::AssertionResult fill_window(const PatternKernel& k, std::uint64_t tag,
                                       FileOffset start, std::size_t mis, std::size_t len) {
  Arena a;
  a.bytes.fill(kGuardByte);
  const auto window = std::span(a.bytes).subspan(Arena::kWindow + mis, len);
  k.fill(tag, start, window);
  if (auto r = ppfs::test::check_pattern(window, tag, start); !r) {
    return r << " [start " << start << " misaligned " << mis << " len " << len << "]";
  }
  for (std::size_t i = 0; i < a.bytes.size(); ++i) {
    const bool inside = i >= Arena::kWindow + mis && i < Arena::kWindow + mis + len;
    if (!inside && a.bytes[i] != kGuardByte) {
      return ::testing::AssertionFailure() << "guard byte " << i << " overwritten [start "
                                           << start << " misaligned " << mis << " len " << len
                                           << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Copies the reference bytes into a misaligned window, then checks that
/// the kernel finds them clean and finds each flipped byte of `flips`.
::testing::AssertionResult verify_window(const PatternKernel& k, std::uint64_t tag,
                                         FileOffset start, std::size_t mis, std::size_t len,
                                         std::initializer_list<std::size_t> flips) {
  Arena a;
  a.bytes.fill(kGuardByte);
  const auto window = std::span(a.bytes).subspan(Arena::kWindow + mis, len);
  const auto ref = ppfs::test::make_pattern(tag, start, len);
  std::copy(ref.begin(), ref.end(), window.begin());
  const auto where = [&] {
    return "[start " + std::to_string(start) + " misaligned " + std::to_string(mis) + " len " +
           std::to_string(len) + "]";
  };
  if (const auto got = k.find_mismatch(tag, start, window); got != kNoMismatch) {
    return ::testing::AssertionFailure() << "clean window reported at " << got << " " << where();
  }
  for (const std::size_t i : flips) {
    if (i >= len) continue;
    window[i] ^= std::byte{0x10};
    const auto got = k.find_mismatch(tag, start, window);
    window[i] ^= std::byte{0x10};
    if (got != i) {
      return ::testing::AssertionFailure()
             << "flipped byte " << i << " reported at " << got << " " << where();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Starts at every residue mod 64, then 64 either side of 2^32, 2^40 and
/// 2^64 - 8: windows up to kMaxLen long from these cross each wrap point
/// at every residue.
std::vector<FileOffset> residue_starts() {
  std::vector<FileOffset> starts;
  for (FileOffset r = 0; r < 64; ++r) starts.push_back(r);
  const FileOffset top = std::numeric_limits<FileOffset>::max() - 7;  // 2^64 - 8
  for (const FileOffset edge : {FileOffset{1} << 32, FileOffset{1} << 40, top}) {
    for (FileOffset d = 0; d < 128; ++d) starts.push_back(edge - 64 + d);
  }
  return starts;
}

/// Offsets whose product with kPatternOffMul has a low word of 0xfffffffe,
/// 0xffffffff, 0 or 1: one byte either side of a carry into byte 4. A
/// vector kernel that tracks low words decides its carries right there.
std::vector<FileOffset> carry_edges() {
  // kPatternOffMul is odd, so it has an inverse mod 2^64 (Newton's method
  // doubles the correct low bits each step).
  std::uint64_t inv = kPatternOffMul;
  for (int i = 0; i < 6; ++i) inv *= 2 - kPatternOffMul * inv;
  std::vector<FileOffset> offs;
  for (const std::uint64_t hi : {std::uint64_t{1}, std::uint64_t{0x7f}, std::uint64_t{0xdead}}) {
    for (const std::uint64_t lo : {0xfffffffeull, 0xffffffffull, 0x100000000ull, 0x100000001ull}) {
      offs.push_back(((hi << 32) + lo) * inv);
    }
  }
  return offs;
}

TEST_P(PatternKernelTest, FillEveryMisalignmentAndLength) {
  for (std::size_t mis = 0; mis < 64; ++mis) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_TRUE(fill_window(GetParam(), kTag, 5, mis, len));
    }
  }
}

TEST_P(PatternKernelTest, FillEveryStartResidueAndLengthAcrossWrapPoints) {
  for (const FileOffset start : residue_starts()) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_TRUE(fill_window(GetParam(), kTag, start, (start + len) % 64, len));
    }
  }
}

TEST_P(PatternKernelTest, FillAcrossLowWordCarries) {
  for (const FileOffset edge : carry_edges()) {
    const auto lo = static_cast<std::uint32_t>(edge * kPatternOffMul);
    ASSERT_TRUE(lo >= 0xfffffffeu || lo <= 1u) << "edge " << edge << " low word " << lo;
    // The edge lands at every byte of the first two 64-byte vectors, so a
    // block's own carries and the step to the next block both meet it.
    for (FileOffset d = 0; d < 128; ++d) {
      ASSERT_TRUE(fill_window(GetParam(), kTag, edge - d, d % 64, 160));
    }
  }
}

TEST_P(PatternKernelTest, FillOverAMegabytePlusSeven) {
  std::vector<std::byte> buf((1u << 20) + 7);
  for (const FileOffset start : {FileOffset{3}, std::numeric_limits<FileOffset>::max() - 7}) {
    GetParam().fill(kTag, start, buf);
    EXPECT_TRUE(ppfs::test::check_pattern(buf, kTag, start)) << "start " << start;
  }
}

TEST_P(PatternKernelTest, VerifyEveryMisalignmentAndLength) {
  for (std::size_t mis = 0; mis < 64; ++mis) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_TRUE(verify_window(GetParam(), kTag, 5, mis, len,
                                {0, 7, 8, 31, 32, 63, 64, 255, 256, len / 2, len - 1}));
    }
  }
}

TEST_P(PatternKernelTest, VerifyEveryStartResidueAndLengthAcrossWrapPoints) {
  for (const FileOffset start : residue_starts()) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_TRUE(verify_window(GetParam(), kTag, start, (start + len) % 64, len, {0, len - 1}));
    }
  }
}

TEST_P(PatternKernelTest, VerifyAcrossLowWordCarries) {
  for (const FileOffset edge : carry_edges()) {
    for (std::size_t d = 0; d < 128; ++d) {
      ASSERT_TRUE(verify_window(GetParam(), kTag, edge - d, d % 64, 160, {d}));
    }
  }
}

TEST_P(PatternKernelTest, VerifyReportsTheFirstOfTwoMismatchesInOneVector) {
  // Every pair in the first 256 bytes: inside one 32- or 64-byte vector, and
  // across the vectors of one AVX-512 verify group, which is scanned in
  // address order only once the whole group is found dirty.
  constexpr std::size_t kLen = 300;
  Arena a;
  for (std::size_t first = 0; first < 256; ++first) {
    for (std::size_t second = first + 1; second < 256; ++second) {
      const std::size_t mis = (first + second) % 64;
      const auto window = std::span(a.bytes).subspan(Arena::kWindow + mis, kLen);
      const auto ref = ppfs::test::make_pattern(kTag, 77, kLen);
      std::copy(ref.begin(), ref.end(), window.begin());
      window[first] ^= std::byte{0x01};
      window[second] ^= std::byte{0x80};
      ASSERT_EQ(GetParam().find_mismatch(kTag, 77, window), first)
          << "second " << second << " misaligned " << mis;
    }
  }
}

TEST_P(PatternKernelTest, VerifyRejectsTheWrongTag) {
  // The tag is a single XOR byte per file: a kernel that drops it would
  // accept any file's bytes.
  const auto ref = ppfs::test::make_pattern(kTag, 0, 4096);
  EXPECT_EQ(GetParam().find_mismatch(kTag + 1, 0, ref), 0u);
}

INSTANTIATE_TEST_SUITE_P(Compiled, PatternKernelTest,
                         ::testing::ValuesIn(detail::pattern_kernels().begin(),
                                             detail::pattern_kernels().end()),
                         [](const ::testing::TestParamInfo<PatternKernel>& p) {
                           return std::string(p.param.name);
                         });

TEST(PatternKernels, WordLoopFirstAndEveryIsaVariantCompiled) {
  const auto kernels = detail::pattern_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "word");
  EXPECT_TRUE(kernels.front().runnable);
#if defined(__x86_64__)
  for (const char* isa : {"avx2", "avx512"}) {
    EXPECT_TRUE(std::any_of(kernels.begin(), kernels.end(),
                            [&](const PatternKernel& k) { return std::strcmp(k.name, isa) == 0; }))
        << isa;
  }
#endif
}

TEST(PatternKernels, PublicFunctionsRunTheLastRunnableKernel) {
  const auto kernels = detail::pattern_kernels();
  const auto last = std::find_if(kernels.rbegin(), kernels.rend(),
                                 [](const PatternKernel& k) { return k.runnable; });
  ASSERT_NE(last, kernels.rend());
  EXPECT_STREQ(pattern_kernel_name(), last->name);
}

}  // namespace
}  // namespace ppfs::workload
