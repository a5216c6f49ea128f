// Workload specification and deterministic data patterns.
//
// The paper's evaluation uses synthetic workloads: every compute node reads
// a shared file in M_RECORD mode (or its own file for the "Separate Files"
// baseline), with "delays ... introduced between I/O accesses in this
// synthetic workload to simulate the computation phases of a program".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "fault/plan.hpp"
#include "pfs/io_mode.hpp"
#include "pfs/stripe.hpp"
#include "prefetch/engine.hpp"
#include "sim/types.hpp"

namespace ppfs::workload {

using sim::ByteCount;
using sim::FileOffset;
using sim::SimTime;

/// How the unique-pointer modes (M_UNIX, M_ASYNC) walk the shared file.
/// kInterleaved issues the same record-interleaved pattern as M_RECORD
/// (but by explicit seeks, with no mode machinery) — the apples-to-apples
/// pattern of the paper's Figure 2 comparison. kOwnRegion has node r scan
/// [r*share, (r+1)*share) sequentially, a prefetch-friendly scan.
/// kStrided is a constant-stride sampling scan (node r reads request k at
/// offset (r + k*N*stride)*request — every node visits one record out of
/// each stride-th round, the PVFS noncontiguous "strided" shape). kListIo
/// emulates a vector-of-extents request stream: node r walks frames of
/// `listio_extents` gapped extents inside its own region, the access shape
/// a list-I/O interface would batch. Both defeat the paper's mode-aware
/// one-ahead rule and exist to exercise the strided/list-I/O predictors.
enum class AccessPattern { kInterleaved, kOwnRegion, kStrided, kListIo };

struct WorkloadSpec {
  std::string name = "workload";
  pfs::IoMode mode = pfs::IoMode::kRecord;
  AccessPattern pattern = AccessPattern::kInterleaved;
  /// Per-node read request size.
  ByteCount request_size = 64 * 1024;
  /// Total bytes the application reads (split across the nodes; for
  /// M_GLOBAL each node reads all of it).
  ByteCount file_size = 8 * 1024 * 1024;
  /// Simulated computation between consecutive reads on each node.
  SimTime compute_delay = 0.0;
  /// kStrided: rounds skipped between consecutive reads (>= 1).
  int stride = 4;
  /// kListIo: extents per list-I/O frame (1..8, the predictor's max cycle).
  int listio_extents = 4;
  /// Attach the prefetch engine (the paper's "with prefetching" runs).
  bool prefetch = false;
  prefetch::PrefetchConfig prefetch_cfg{};
  /// Striping override; defaults to the mount default (64 KB across all
  /// I/O nodes).
  std::optional<pfs::StripeAttrs> attrs;
  /// Paper Fig 2's "Separate Files": each node reads a private file.
  bool separate_files = false;
  /// Fast Path (cache-bypassing DMA reads). Disable to route reads through
  /// the I/O-node buffer caches — the configuration where SERVER-side
  /// readahead (UfsParams::readahead_blocks) can act.
  bool use_fastpath = true;
  /// Check every byte read against the written pattern (slower; tests on).
  bool verify = false;
  /// Fault schedule armed at the start of the read phase (event times are
  /// relative to that moment). Empty plan = healthy run.
  fault::FaultPlan faults;
};

inline constexpr std::uint64_t kPatternTagMul = 0x9e3779b97f4a7c15ull;
inline constexpr std::uint64_t kPatternOffMul = 0xbf58476d1ce4e5b9ull;

/// Deterministic file content so any data path bug is observable: byte at
/// offset `off` of the file tagged `tag` mixes both values. This is the one
/// definition of file content; fill_pattern and find_pattern_mismatch
/// produce exactly these bytes, many at a time.
inline std::byte pattern_byte(std::uint64_t tag, std::uint64_t off) {
  const std::uint64_t x = (tag * kPatternTagMul) ^ (off * kPatternOffMul);
  return static_cast<std::byte>((x >> 32) & 0xff);
}

/// out[i] = pattern_byte(tag, start + i).
void fill_pattern(std::uint64_t tag, FileOffset start, std::span<std::byte> out);

/// Name of the kernel fill_pattern and find_pattern_mismatch run on this
/// CPU: "word", "avx2" or "avx512". Host rates depend on it; bytes do not.
const char* pattern_kernel_name();

// Offset plans for the noncontiguous patterns; shared by the reader's seek
// targets and the byte-pattern verification so both always agree.

/// Node `rank`'s read k under kStrided: (rank + k*nprocs*stride)*request.
FileOffset strided_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k);
/// Reads per node under kStrided (the sampling scan visits 1/stride of the
/// file): file_size / (request * nprocs * stride).
std::uint64_t strided_reads_per_node(const WorkloadSpec& w, int nprocs);

/// Bytes one kListIo frame spans: (2*extents + 1) requests (extents are a
/// request wide, separated by request-sized holes, plus a one-request skip
/// to the next frame).
ByteCount listio_frame_bytes(const WorkloadSpec& w);
/// Node `rank`'s read k under kListIo: extent (k % extents) of frame
/// (k / extents) inside the node's own region.
FileOffset listio_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k);
/// Reads per node under kListIo: whole frames in the region, extents each.
std::uint64_t listio_reads_per_node(const WorkloadSpec& w, int nprocs);

/// Index of the first byte of `data` that differs from
/// pattern_byte(tag, start + index), or kNoMismatch when none does.
std::size_t find_pattern_mismatch(std::uint64_t tag, FileOffset start,
                                  std::span<const std::byte> data);
inline constexpr std::size_t kNoMismatch = static_cast<std::size_t>(-1);

}  // namespace ppfs::workload
