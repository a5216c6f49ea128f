#include "workload/generator.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "workload/pattern_kernel.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ppfs::workload {

namespace {

// ---- Portable kernel: one 64-bit word at a time -------------------------
//
// pattern_byte(tag, off) is pattern_byte(tag, 0) XOR byte 4 of
// off * kPatternOffMul: the tag contributes one constant byte, and the
// offset product grows by kPatternOffMul per byte (mod 2^64, so offsets
// that wrap stay exact). Eight bytes are assembled from one running product.
// This kernel runs on CPUs without a vector ISA and on the ragged tails
// the vector kernels leave.

/// Shift that puts byte j of a word at address offset j once stored.
constexpr unsigned word_shift(std::size_t j) {
  return static_cast<unsigned>(std::endian::native == std::endian::little ? 8 * j : 56 - 8 * j);
}

/// The offset term of eight consecutive pattern bytes, assembled into one
/// word: byte j comes from the product x + j * kPatternOffMul. The fold
/// unrolls at every optimisation level.
template <std::size_t... J>
std::uint64_t offset_word(std::uint64_t x, std::index_sequence<J...>) {
  return (((((x + J * kPatternOffMul) >> 32) & 0xff) << word_shift(J)) | ...);
}

/// pattern_byte(tag, 0) in every byte of a word.
std::uint64_t tag_word(std::uint64_t tag) {
  return std::to_integer<std::uint64_t>(pattern_byte(tag, 0)) * 0x0101010101010101ull;
}

void fill_words(std::uint64_t tag, FileOffset start, std::span<std::byte> out) {
  const std::uint64_t tw = tag_word(tag);
  std::uint64_t x = start * kPatternOffMul;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = offset_word(x, std::make_index_sequence<8>{}) ^ tw;
    std::memcpy(out.data() + i, &w, sizeof w);
    x += 8 * kPatternOffMul;
  }
  for (; i < out.size(); ++i) out[i] = pattern_byte(tag, start + i);
}

std::size_t mismatch_words(std::uint64_t tag, FileOffset start,
                           std::span<const std::byte> data) {
  const std::uint64_t tw = tag_word(tag);
  std::uint64_t x = start * kPatternOffMul;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t got = 0;
    std::memcpy(&got, data.data() + i, sizeof got);
    const std::uint64_t diff = got ^ offset_word(x, std::make_index_sequence<8>{}) ^ tw;
    if (diff != 0) {
      // The differing byte nearest the word's lowest address.
      return i + static_cast<std::size_t>(std::endian::native == std::endian::little
                                              ? std::countr_zero(diff) / 8
                                              : std::countl_zero(diff) / 8);
    }
    x += 8 * kPatternOffMul;
  }
  for (; i < data.size(); ++i) {
    if (data[i] != pattern_byte(tag, start + i)) return i;
  }
  return kNoMismatch;
}

#if defined(__x86_64__)

// ---- AVX2 kernel: 32 bytes per step --------------------------------------
//
// Byte j of a 32-byte block whose first offset product is X is byte 4 of
// X + j*M (M = kPatternOffMul). Split at bit 32, that byte is
//
//   byte 4 of X  +  byte 4 of j*M  +  carry_j   (mod 256),
//
// where carry_j = 1 when the low words overflow: lo(X) > ~lo(j*M). So a
// block needs no 64-bit product per byte, only 32 unsigned compares of one
// low word against constants. The low word sits in every 32-bit lane,
// offset by 2^31 so that the signed vpcmpgtd orders it as unsigned. Four
// compares give each byte's carry as an all-ones lane; two vpackssdw and a
// vpacksswb narrow the 32 lanes to bytes, and the constants are stored in
// the lane order that puts byte j's carry at byte j. The byte-4 sums live
// in one byte vector `hi`, so a block is (hi - carries) ^ tag byte. Moving
// to the next block adds 32*M to X: lo(32*M) to every low-word lane, and
// byte 4 of 32*M plus that addition's own carry to every byte of `hi`.
// A block takes five compares, three packs and five byte or lane adds,
// subtracts and XORs: no 64-bit multiply and no shuffle per byte.

constexpr std::uint64_t kBlock = 32;
constexpr std::uint64_t kBlockStep = kBlock * kPatternOffMul;

/// A low word offset by 2^31, as one 32-bit lane.
constexpr std::int32_t biased(std::uint32_t lo) {
  return static_cast<std::int32_t>(lo ^ 0x80000000u);
}

struct Avx2Constants {
  /// ~lo(j*M), biased, for byte j = 16h + 8s + 4t + u of a block, held in
  /// lane 4h + u of vector 2s + t: the packs interleave 128-bit halves, so
  /// that is where they take byte j from.
  std::int32_t carry_above[4][8];
  /// Byte 4 of j*M.
  std::uint8_t hi[kBlock];
};

constexpr Avx2Constants make_avx2_constants() {
  Avx2Constants c{};
  for (std::uint64_t j = 0; j < kBlock; ++j) {
    const std::uint64_t p = j * kPatternOffMul;
    c.carry_above[2 * ((j >> 3) & 1) + ((j >> 2) & 1)][4 * (j >> 4) + (j & 3)] =
        biased(~static_cast<std::uint32_t>(p));
    c.hi[j] = static_cast<std::uint8_t>(p >> 32);
  }
  return c;
}

constexpr Avx2Constants kAvx2 = make_avx2_constants();

/// Generator state for the next block.
struct Avx2Stream {
  __m256i lo;   ///< lo(X), biased, in every 32-bit lane
  __m256i hi;   ///< byte j: byte 4 of X + byte 4 of j*M
  __m256i tag;  ///< pattern_byte(tag, 0) in every byte
};

[[gnu::target("avx2")]] inline __m256i load256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

[[gnu::target("avx2")]] void avx2_start(Avx2Stream& s, std::uint64_t tag, FileOffset start) {
  const std::uint64_t x = start * kPatternOffMul;
  s.lo = _mm256_set1_epi32(biased(static_cast<std::uint32_t>(x)));
  s.hi = _mm256_add_epi8(_mm256_set1_epi8(static_cast<char>(x >> 32)), load256(kAvx2.hi));
  s.tag = _mm256_set1_epi8(std::to_integer<char>(pattern_byte(tag, 0)));
}

/// The pattern bytes of the current block; advances to the next.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256i avx2_next(Avx2Stream& s) {
  const __m256i c0 = _mm256_cmpgt_epi32(s.lo, load256(kAvx2.carry_above[0]));
  const __m256i c1 = _mm256_cmpgt_epi32(s.lo, load256(kAvx2.carry_above[1]));
  const __m256i c2 = _mm256_cmpgt_epi32(s.lo, load256(kAvx2.carry_above[2]));
  const __m256i c3 = _mm256_cmpgt_epi32(s.lo, load256(kAvx2.carry_above[3]));
  const __m256i carries =
      _mm256_packs_epi16(_mm256_packs_epi32(c0, c1), _mm256_packs_epi32(c2, c3));
  const __m256i bytes = _mm256_xor_si256(_mm256_sub_epi8(s.hi, carries), s.tag);
  const __m256i step_carry = _mm256_cmpgt_epi32(
      s.lo, _mm256_set1_epi32(biased(~static_cast<std::uint32_t>(kBlockStep))));
  s.lo = _mm256_add_epi32(s.lo, _mm256_set1_epi32(static_cast<std::int32_t>(
                                    static_cast<std::uint32_t>(kBlockStep))));
  s.hi = _mm256_sub_epi8(
      _mm256_add_epi8(s.hi, _mm256_set1_epi8(static_cast<char>(kBlockStep >> 32))), step_carry);
  return bytes;
}

[[gnu::target("avx2")]] void fill_avx2(std::uint64_t tag, FileOffset start,
                                       std::span<std::byte> out) {
  Avx2Stream s;
  avx2_start(s, tag, start);
  std::size_t i = 0;
  for (; i + kBlock <= out.size(); i += kBlock) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i), avx2_next(s));
  }
  fill_words(tag, start + i, out.subspan(i));
}

[[gnu::target("avx2")]] std::size_t mismatch_avx2(std::uint64_t tag, FileOffset start,
                                                  std::span<const std::byte> data) {
  Avx2Stream s;
  avx2_start(s, tag, start);
  std::size_t i = 0;
  for (; i + kBlock <= data.size(); i += kBlock) {
    const __m256i same = _mm256_cmpeq_epi8(avx2_next(s), load256(data.data() + i));
    // Bit k is byte k's compare; x86 keeps address order in the register.
    const auto mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(same));
    if (mask != 0xffffffffu) return i + static_cast<std::size_t>(std::countr_zero(~mask));
  }
  const std::size_t tail = mismatch_words(tag, start + i, data.subspan(i));
  return tail == kNoMismatch ? kNoMismatch : i + tail;
}

bool cpu_has_avx2() {
  // The CPU model may not be initialised yet when this runs from a static
  // initializer.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

// ---- AVX-512 kernel: 64 bytes per step -----------------------------------
//
// The AVX2 kernel's generator on 64-byte blocks. lo(X) sits in 16 dword
// lanes, and vpcmpud orders lanes as unsigned, so nothing is biased: four
// compares against ~lo(j*M), for byte j = 16k + lane of vector k, give the
// carries as four 16-bit masks, and two kunpckwd and one kunpckdq join them
// into one 64-bit mask whose bit j is byte j's carry. No pack and no lane
// order is involved. One masked byte subtract of all-ones adds the carries
// to `hi`, and one XOR adds the tag byte. The block step adds lo(64*M) to
// every lane, and byte 4 of 64*M plus that addition's carry (the same in
// every lane) to every byte of `hi`.
//
// Verify XORs four generated blocks with the data and ORs the four results
// with one vpternlogq, so a clean 256-byte group costs one branch. Only a
// group with a nonzero byte is scanned, its blocks in address order. Whole
// blocks past the last group go one at a time, and the tail under 64 bytes
// goes to the word loop.

constexpr std::uint64_t kBlock512 = 64;
constexpr std::uint64_t kBlockStep512 = kBlock512 * kPatternOffMul;
constexpr std::size_t kGroupBytes = 4 * kBlock512;

struct Avx512Constants {
  /// ~lo(j*M) for byte j of a block: lane i of vector k is byte 16k + i.
  alignas(64) std::uint32_t carry_above[kBlock512];
  /// Byte 4 of j*M.
  alignas(64) std::uint8_t hi[kBlock512];
};

constexpr Avx512Constants make_avx512_constants() {
  Avx512Constants c{};
  for (std::uint64_t j = 0; j < kBlock512; ++j) {
    const std::uint64_t p = j * kPatternOffMul;
    c.carry_above[j] = ~static_cast<std::uint32_t>(p);
    c.hi[j] = static_cast<std::uint8_t>(p >> 32);
  }
  return c;
}

constexpr Avx512Constants kAvx512 = make_avx512_constants();

/// Generator state for the next 64-byte block.
struct Avx512Stream {
  __m512i lo;   ///< lo(X) in every 32-bit lane
  __m512i hi;   ///< byte j: byte 4 of X + byte 4 of j*M
  __m512i tag;  ///< pattern_byte(tag, 0) in every byte
};

[[gnu::target("avx512f,avx512bw")]] inline __m512i load512(const void* p) {
  return _mm512_loadu_si512(p);
}

[[gnu::target("avx512f,avx512bw")]] void avx512_start(Avx512Stream& s, std::uint64_t tag,
                                                      FileOffset start) {
  const std::uint64_t x = start * kPatternOffMul;
  s.lo = _mm512_set1_epi32(static_cast<std::int32_t>(static_cast<std::uint32_t>(x)));
  s.hi = _mm512_add_epi8(_mm512_set1_epi8(static_cast<char>(x >> 32)), load512(kAvx512.hi));
  s.tag = _mm512_set1_epi8(std::to_integer<char>(pattern_byte(tag, 0)));
}

/// The pattern bytes of the current block; advances to the next.
[[gnu::target("avx512f,avx512bw"), gnu::always_inline]] inline __m512i avx512_next(
    Avx512Stream& s) {
  const __mmask16 c0 = _mm512_cmpgt_epu32_mask(s.lo, load512(kAvx512.carry_above));
  const __mmask16 c1 = _mm512_cmpgt_epu32_mask(s.lo, load512(kAvx512.carry_above + 16));
  const __mmask16 c2 = _mm512_cmpgt_epu32_mask(s.lo, load512(kAvx512.carry_above + 32));
  const __mmask16 c3 = _mm512_cmpgt_epu32_mask(s.lo, load512(kAvx512.carry_above + 48));
  // kunpck puts its second operand in the low half.
  const __mmask64 carries = _mm512_kunpackd(_mm512_kunpackw(c3, c2), _mm512_kunpackw(c1, c0));
  const __m512i bytes =
      _mm512_xor_si512(_mm512_mask_sub_epi8(s.hi, carries, s.hi, _mm512_set1_epi8(-1)), s.tag);
  // The block step's carry out of the low words: bit 31 of the majority of
  // lo, lo(64*M) and ~(their sum), spread over the lane by an arithmetic
  // shift. No compare: the compares above already fill the port that runs
  // them. (The zero-masked shift with a full mask is a plain vpsrad; GCC
  // 12's unmasked intrinsic trips -Wmaybe-uninitialized.)
  const __m512i step_lo = _mm512_set1_epi32(static_cast<std::int32_t>(
      static_cast<std::uint32_t>(kBlockStep512)));
  const __m512i next_lo = _mm512_add_epi32(s.lo, step_lo);
  const __m512i step_carry = _mm512_maskz_srai_epi32(
      0xffff, _mm512_ternarylogic_epi32(s.lo, step_lo, next_lo, 0xd4), 31);
  s.lo = next_lo;
  s.hi = _mm512_sub_epi8(
      _mm512_add_epi8(s.hi, _mm512_set1_epi8(static_cast<char>(kBlockStep512 >> 32))),
      step_carry);
  return bytes;
}

/// Index of the first nonzero byte of `x`, or 64 when none is.
[[gnu::target("avx512f,avx512bw"), gnu::always_inline]] inline std::size_t first_nonzero(
    __m512i x) {
  // Bit k is byte k's test; x86 keeps address order in the mask.
  return static_cast<std::size_t>(std::countr_zero(_mm512_test_epi8_mask(x, x)));
}

[[gnu::target("avx512f,avx512bw")]] void fill_avx512(std::uint64_t tag, FileOffset start,
                                                     std::span<std::byte> out) {
  Avx512Stream s;
  avx512_start(s, tag, start);
  std::size_t i = 0;
  for (; i + kBlock512 <= out.size(); i += kBlock512) {
    _mm512_storeu_si512(out.data() + i, avx512_next(s));
  }
  fill_words(tag, start + i, out.subspan(i));
}

[[gnu::target("avx512f,avx512bw")]] std::size_t mismatch_avx512(
    std::uint64_t tag, FileOffset start, std::span<const std::byte> data) {
  Avx512Stream s;
  avx512_start(s, tag, start);
  const std::byte* p = data.data();
  std::size_t i = 0;
  for (; i + kGroupBytes <= data.size(); i += kGroupBytes) {
    const __m512i x0 = _mm512_xor_si512(avx512_next(s), load512(p + i));
    const __m512i x1 = _mm512_xor_si512(avx512_next(s), load512(p + i + kBlock512));
    const __m512i x2 = _mm512_xor_si512(avx512_next(s), load512(p + i + 2 * kBlock512));
    const __m512i x3 = _mm512_xor_si512(avx512_next(s), load512(p + i + 3 * kBlock512));
    const __m512i any = _mm512_ternarylogic_epi64(_mm512_or_si512(x0, x1), x2, x3, 0xfe);
    if (_mm512_test_epi64_mask(any, any) != 0) {
      if (const std::size_t k = first_nonzero(x0); k < kBlock512) return i + k;
      if (const std::size_t k = first_nonzero(x1); k < kBlock512) return i + kBlock512 + k;
      if (const std::size_t k = first_nonzero(x2); k < kBlock512) return i + 2 * kBlock512 + k;
      return i + 3 * kBlock512 + first_nonzero(x3);
    }
  }
  for (; i + kBlock512 <= data.size(); i += kBlock512) {
    const __m512i x = _mm512_xor_si512(avx512_next(s), load512(p + i));
    if (const std::size_t k = first_nonzero(x); k < kBlock512) return i + k;
  }
  const std::size_t tail = mismatch_words(tag, start + i, data.subspan(i));
  return tail == kNoMismatch ? kNoMismatch : i + tail;
}

bool cpu_has_avx512bw() {
  // As cpu_has_avx2. libgcc reports AVX-512 features only when the OS saves
  // the mask and ZMM registers.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
}

#endif  // __x86_64__

/// The last runnable entry of pattern_kernels(), chosen on first use.
const detail::PatternKernel& best_kernel() {
  static const detail::PatternKernel& best = []() -> const detail::PatternKernel& {
    const auto kernels = detail::pattern_kernels();
    return *std::find_if(kernels.rbegin(), kernels.rend(),
                         [](const detail::PatternKernel& k) { return k.runnable; });
  }();
  return best;
}

}  // namespace

namespace detail {

std::span<const PatternKernel> pattern_kernels() {
  static const PatternKernel kernels[] = {
      {"word", true, fill_words, mismatch_words},
#if defined(__x86_64__)
      {"avx2", cpu_has_avx2(), fill_avx2, mismatch_avx2},
      {"avx512", cpu_has_avx512bw(), fill_avx512, mismatch_avx512},
#endif
  };
  return kernels;
}

}  // namespace detail

FileOffset strided_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k) {
  const auto step = static_cast<FileOffset>(nprocs) * w.stride;
  return (static_cast<FileOffset>(rank) + k * step) * w.request_size;
}

std::uint64_t strided_reads_per_node(const WorkloadSpec& w, int nprocs) {
  const ByteCount round = w.request_size * static_cast<ByteCount>(nprocs) *
                          static_cast<ByteCount>(w.stride);
  return round ? w.file_size / round : 0;
}

ByteCount listio_frame_bytes(const WorkloadSpec& w) {
  return w.request_size * (2 * static_cast<ByteCount>(w.listio_extents) + 1);
}

FileOffset listio_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k) {
  const auto extents = static_cast<std::uint64_t>(w.listio_extents);
  const std::uint64_t frame = k / extents;
  const std::uint64_t slot = k % extents;
  const ByteCount share = w.file_size / nprocs;
  return static_cast<FileOffset>(rank) * share + frame * listio_frame_bytes(w) +
         slot * 2 * w.request_size;
}

std::uint64_t listio_reads_per_node(const WorkloadSpec& w, int nprocs) {
  const ByteCount share = w.file_size / nprocs;
  const ByteCount frame = listio_frame_bytes(w);
  return frame ? (share / frame) * static_cast<std::uint64_t>(w.listio_extents) : 0;
}

void fill_pattern(std::uint64_t tag, FileOffset start, std::span<std::byte> out) {
  best_kernel().fill(tag, start, out);
}

const char* pattern_kernel_name() { return best_kernel().name; }

std::size_t find_pattern_mismatch(std::uint64_t tag, FileOffset start,
                                  std::span<const std::byte> data) {
  return best_kernel().find_mismatch(tag, start, data);
}

}  // namespace ppfs::workload
