#include "workload/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "pfs/filesystem.hpp"
#include "workload/rig.hpp"
#include "workload/trace.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::Task;

constexpr std::uint64_t kSharedTag = 1;
constexpr std::uint64_t kSeparateTagBase = 100;

/// Reads every node issues: the workload's bytes split the way its mode
/// and pattern split them.
std::uint64_t reads_per_node(const WorkloadSpec& w, int nprocs) {
  const ByteCount share = w.file_size / nprocs;
  const ByteCount round = w.request_size * static_cast<ByteCount>(nprocs);
  if (w.separate_files) return share / w.request_size;
  switch (w.mode) {
    case IoMode::kRecord:
      return w.file_size / round;
    case IoMode::kGlobal:
      return w.file_size / w.request_size;
    case IoMode::kLog:
    case IoMode::kSync:
      return share / w.request_size;
    case IoMode::kUnix:
    case IoMode::kAsync:
      switch (w.pattern) {
        case AccessPattern::kInterleaved: return w.file_size / round;
        case AccessPattern::kOwnRegion: return share / w.request_size;
        case AccessPattern::kStrided: return strided_reads_per_node(w, nprocs);
        case AccessPattern::kListIo: return listio_reads_per_node(w, nprocs);
      }
      break;
  }
  throw std::logic_error("reads_per_node: unknown mode or pattern");
}

/// Where node `rank`'s read k seeks to in the seeking patterns.
FileOffset seek_target(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k) {
  switch (w.pattern) {
    case AccessPattern::kStrided: return strided_offset(w, rank, nprocs, k);
    case AccessPattern::kListIo: return listio_offset(w, rank, nprocs, k);
    default: return (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size;
  }
}

}  // namespace

ExperimentResult Experiment::run(const WorkloadSpec& w, trace::TraceSink* sink,
                                 const PostRunHook& post_run) const {
  if (w.request_size == 0) throw std::invalid_argument("Experiment: zero request size");
  if ((w.pattern == AccessPattern::kStrided || w.pattern == AccessPattern::kListIo) &&
      (w.separate_files || (w.mode != IoMode::kUnix && w.mode != IoMode::kAsync))) {
    throw std::invalid_argument(
        "Experiment: strided/listio patterns need M_UNIX or M_ASYNC on a shared file");
  }
  if (w.pattern == AccessPattern::kStrided && w.stride < 1) {
    throw std::invalid_argument("Experiment: stride must be >= 1");
  }
  if (w.pattern == AccessPattern::kListIo &&
      (w.listio_extents < 1 ||
       w.listio_extents > static_cast<int>(prefetch::ListIoPredictor::kMaxPeriod))) {
    throw std::invalid_argument("Experiment: listio extents must be in [1, 8]");
  }
  const int N = spec_.ncompute;

  detail::Rig rig(spec_, detail::Topology::kParagon, N, sink);
  pfs::PfsFileSystem& fs = rig.fs();
  if (w.prefetch) rig.attach_prefetchers(w.prefetch_cfg);
  const pfs::StripeAttrs attrs = w.attrs.value_or(fs.default_attrs());

  // --- plan the per-node work ---
  std::vector<detail::ReadPlan> plans(N);
  if (w.separate_files) {
    for (int r = 0; r < N; ++r) {
      plans[r].file = "sep" + std::to_string(r);
      plans[r].mode = IoMode::kAsync;  // a private file needs no coordination
      plans[r].tag = kSeparateTagBase + r;
      // Stagger each file's first stripe placement (rotate the group), as
      // a real mount does — otherwise N lockstep readers all land on group
      // slot 0 simultaneously, which no production placement policy allows.
      pfs::StripeAttrs rotated = attrs;
      const int g = rotated.group_size();
      std::rotate(rotated.stripe_group.begin(),
                  rotated.stripe_group.begin() + (r % g), rotated.stripe_group.end());
      fs.create(plans[r].file, rotated);
    }
  } else {
    fs.create("shared", attrs);
    for (int r = 0; r < N; ++r) {
      plans[r].file = "shared";
      plans[r].mode = w.mode;
      plans[r].tag = kSharedTag;
    }
  }
  const std::uint64_t reads = reads_per_node(w, N);
  if (reads == 0) {
    throw std::invalid_argument("Experiment: file too small for one request per node");
  }
  // The unique-pointer modes walk the shared file in w.pattern: from the
  // node's own region's start, or by a seek before every read.
  const bool walks = !w.separate_files && (w.mode == IoMode::kUnix || w.mode == IoMode::kAsync);
  const bool seek_each = walks && w.pattern != AccessPattern::kOwnRegion;
  for (int r = 0; r < N; ++r) {
    plans[r].fastpath = w.use_fastpath;
    if (walks && !seek_each) plans[r].start = static_cast<ByteCount>(r) * (w.file_size / N);
    std::vector<TraceOp>& ops = plans[r].ops;
    ops.reserve(seek_each ? 2 * reads : reads);
    for (std::uint64_t k = 0; k < reads; ++k) {
      if (seek_each) {
        ops.push_back(TraceOp{r, TraceOp::Kind::kSeek, 0, seek_target(w, r, N, k), 0});
      }
      // The compute delay sits between reads: none follows the last.
      const SimTime think = k + 1 < reads ? w.compute_delay : 0;
      ops.push_back(TraceOp{r, TraceOp::Kind::kRead, w.request_size, 0, think});
    }
  }

  // --- populate (simulated time spent here is not measured) ---
  std::vector<Task<void>> loads;
  if (w.separate_files) {
    for (int r = 0; r < N; ++r) {
      loads.push_back(
          detail::populate(rig.client(r), plans[r].file, plans[r].tag, w.file_size / N));
    }
  } else {
    loads.push_back(detail::populate(rig.client(0), "shared", kSharedTag, w.file_size));
  }
  rig.run_populate(std::move(loads), "Experiment");

  // --- read phase (fault-plan times are relative to its start) ---
  rig.start_phase(w.faults);
  ExperimentResult res;
  res.spec = w;
  rig.run_reads(plans, w.verify, res, "Experiment");
  // The post-run hook sees the live mount (fsck audits, corruption
  // injection for tests) after metrics are final but before teardown.
  if (post_run) post_run(fs);
  return res;
}

sim::SimTime Experiment::read_access_time(ByteCount request_size) const {
  WorkloadSpec w;
  w.mode = IoMode::kRecord;
  w.request_size = request_size;
  // 4 rounds give a steady-state mean without a long run.
  w.file_size = request_size * static_cast<ByteCount>(spec_.ncompute) * 4;
  const auto res = run(w);
  return res.mean_read_call_time;
}

}  // namespace ppfs::workload
