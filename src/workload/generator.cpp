#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace ppfs::workload {

namespace {

/// find_pattern_mismatch synthesizes the expected bytes into a stack block
/// of this size and compares it with memcmp.
constexpr std::size_t kVerifyBlock = 4096;

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

}  // namespace

const char* pattern_name(AccessPattern p) {
  switch (p) {
    case AccessPattern::kInterleaved: return "interleaved";
    case AccessPattern::kOwnRegion: return "own-region";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kListIo: return "listio";
  }
  return "?";
}

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
  // pattern_byte(tag, off) is pattern_byte(tag, 0) XOR byte 4 of
  // off * kPatternOffMul: the tag contributes one constant byte, and the
  // offset product grows by kPatternOffMul per byte (mod 2^64, so offsets
  // that wrap stay exact). Eight bytes are assembled into one word and
  // stored at once.
  const std::uint64_t tag_word =
      std::to_integer<std::uint64_t>(pattern_byte(tag, 0)) * 0x0101010101010101ull;
  std::uint64_t x = start * kPatternOffMul;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = offset_word(x, std::make_index_sequence<8>{}) ^ tag_word;
    std::memcpy(out.data() + i, &w, sizeof w);
    x += 8 * kPatternOffMul;
  }
  for (; i < out.size(); ++i) out[i] = pattern_byte(tag, start + i);
}

std::size_t find_pattern_mismatch(std::uint64_t tag, FileOffset start,
                                  std::span<const std::byte> data) {
  std::array<std::byte, kVerifyBlock> expect;
  for (std::size_t done = 0; done < data.size();) {
    const std::size_t n = std::min(kVerifyBlock, data.size() - done);
    fill_pattern(tag, start + done, std::span(expect).first(n));
    if (std::memcmp(data.data() + done, expect.data(), n) != 0) {
      // The block differs somewhere: scan it for the first differing byte.
      std::size_t i = 0;
      while (data[done + i] == expect[i]) ++i;
      return done + i;
    }
    done += n;
  }
  return kNoMismatch;
}

}  // namespace ppfs::workload
