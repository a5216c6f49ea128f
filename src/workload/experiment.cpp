#include "workload/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/error.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "workload/rig.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

constexpr std::uint64_t kSharedTag = 1;
constexpr std::uint64_t kSeparateTagBase = 100;

struct NodePlan {
  std::string file;
  /// The mode the node opens its file in, and verifies its reads against:
  /// the workload's mode on the shared file, M_ASYNC on a private one.
  IoMode mode = IoMode::kUnix;
  std::uint64_t tag = kSharedTag;
  std::uint64_t reads = 0;
  ByteCount own_region_start = 0;  // seek target for unique-pointer modes
  bool seek_first = false;
  bool interleave_seeks = false;   // seek to (k*N + rank)*req before read k
  bool strided_seeks = false;      // seek to strided_offset(k) before read k
  bool listio_seeks = false;       // seek to listio_offset(k) before read k
};

/// Expected file offset of read k for verification purposes.
FileOffset expected_offset(const WorkloadSpec& w, const NodePlan& plan, int rank, int nprocs,
                           std::uint64_t k, FileOffset observed_ptr_after,
                           ByteCount got) {
  switch (plan.mode) {
    case IoMode::kRecord:
      return (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size;
    case IoMode::kUnix:
    case IoMode::kAsync:
      if (plan.interleave_seeks) {
        return (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size;
      }
      if (plan.strided_seeks) return strided_offset(w, rank, nprocs, k);
      if (plan.listio_seeks) return listio_offset(w, rank, nprocs, k);
      return plan.own_region_start + k * w.request_size;
    case IoMode::kGlobal:
      return k * w.request_size;
    case IoMode::kLog:
    case IoMode::kSync:
      // The claimed region is only known after the fact: the client's
      // pointer lands at claim_end.
      return observed_ptr_after - got;
  }
  throw std::logic_error("expected_offset: unknown mode");
}

Task<void> reader(const WorkloadSpec& w, pfs::PfsClient& client, NodePlan plan,
                  sim::Barrier& start_line, detail::ReadTally& out, int rank, int nprocs) {
  const int fd = co_await client.open(plan.file, plan.mode);
  if (!w.use_fastpath) client.set_fastpath(fd, false);
  if (plan.seek_first && plan.own_region_start != 0) {
    co_await client.seek(fd, plan.own_region_start);
  }
  co_await start_line.arrive_and_wait();
  out.start = client.machine().simulation().now();

  std::vector<std::byte> buf(w.request_size);
  for (std::uint64_t k = 0; k < plan.reads; ++k) {
    if (plan.interleave_seeks) {
      co_await client.seek(
          fd, (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size);
    } else if (plan.strided_seeks) {
      co_await client.seek(fd, strided_offset(w, rank, nprocs, k));
    } else if (plan.listio_seeks) {
      co_await client.seek(fd, listio_offset(w, rank, nprocs, k));
    }
    const SimTime call_start = client.machine().simulation().now();
    ByteCount got = 0;
    bool read_failed = false;
    try {
      got = co_await client.read(fd, buf);
    } catch (const fault::FaultError&) {
      // A terminal fault (retry budget exhausted) surfaces to the
      // application as a failed read; the run carries on with the next
      // request, like a real program retrying at its own level would.
      read_failed = true;
    }
    out.latencies.add(client.machine().simulation().now() - call_start);
    out.bytes += got;
    ++out.reads;
    if (read_failed) ++out.app_errors;
    if (!read_failed && w.verify && got > 0) {
      const FileOffset off =
          expected_offset(w, plan, rank, nprocs, k, client.tell(fd), got);
      if (find_pattern_mismatch(plan.tag, off,
                                std::span<const std::byte>(buf).subspan(0, got)) !=
          kNoMismatch) {
        ++out.verify_failures;
      }
    }
    out.end = client.machine().simulation().now();
    if (w.compute_delay > 0 && k + 1 < plan.reads) {
      co_await client.machine().simulation().delay(w.compute_delay);
    }
  }
  client.close(fd);
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
  const int N = spec_.ncompute;

  detail::Rig rig(spec_, detail::Topology::kParagon, N, sink);
  pfs::PfsFileSystem& fs = rig.fs();
  if (w.prefetch) rig.attach_prefetchers(w.prefetch_cfg);
  const pfs::StripeAttrs attrs = w.attrs.value_or(fs.default_attrs());

  // --- plan the per-node work ---
  std::vector<NodePlan> plans(N);
  if (w.separate_files) {
    const ByteCount per_node = w.file_size / N;
    for (int r = 0; r < N; ++r) {
      plans[r].file = "sep" + std::to_string(r);
      plans[r].mode = IoMode::kAsync;  // a private file needs no coordination
      plans[r].tag = kSeparateTagBase + r;
      plans[r].reads = per_node / w.request_size;
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
      switch (w.mode) {
        case IoMode::kRecord:
          plans[r].reads = w.file_size / (w.request_size * static_cast<ByteCount>(N));
          break;
        case IoMode::kGlobal:
          plans[r].reads = w.file_size / w.request_size;
          break;
        case IoMode::kUnix:
        case IoMode::kAsync: {
          switch (w.pattern) {
            case AccessPattern::kInterleaved:
              plans[r].reads = w.file_size / (w.request_size * static_cast<ByteCount>(N));
              plans[r].interleave_seeks = true;
              break;
            case AccessPattern::kOwnRegion: {
              const ByteCount share = w.file_size / N;
              plans[r].reads = share / w.request_size;
              plans[r].own_region_start = static_cast<ByteCount>(r) * share;
              plans[r].seek_first = true;
              break;
            }
            case AccessPattern::kStrided:
              if (w.stride < 1) {
                throw std::invalid_argument("Experiment: stride must be >= 1");
              }
              plans[r].reads = strided_reads_per_node(w, N);
              plans[r].strided_seeks = true;
              break;
            case AccessPattern::kListIo:
              if (w.listio_extents < 1 ||
                  w.listio_extents >
                      static_cast<int>(prefetch::ListIoPredictor::kMaxPeriod)) {
                throw std::invalid_argument(
                    "Experiment: listio extents must be in [1, 8]");
              }
              plans[r].reads = listio_reads_per_node(w, N);
              plans[r].listio_seeks = true;
              break;
          }
          break;
        }
        case IoMode::kLog:
        case IoMode::kSync:
          plans[r].reads = (w.file_size / N) / w.request_size;
          break;
      }
    }
  }
  for (const auto& p : plans) {
    if (p.reads == 0) {
      throw std::invalid_argument("Experiment: file too small for one request per node");
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
  sim::Barrier start_line(rig.sim(), N);
  std::vector<detail::ReadTally> outcomes(N);
  for (int r = 0; r < N; ++r) {
    rig.sim().spawn(reader(w, rig.client(r), plans[r], start_line, outcomes[r], r, N));
  }
  rig.sim().run();

  // --- collect ---
  for (int r = 0; r < N; ++r) {
    if (outcomes[r].reads != plans[r].reads) {
      throw std::runtime_error("Experiment: node " + std::to_string(r) +
                               " did not finish its reads (deadlock?)");
    }
  }
  ExperimentResult res;
  res.spec = w;
  rig.collect_reads(res, outcomes);
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
