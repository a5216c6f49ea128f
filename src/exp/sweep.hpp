// SweepRunner: fan a batch of independent experiments across a thread pool.
//
// Every (machine, workload) job is a complete, self-contained simulation —
// Experiment::run builds a fresh machine, runs it on one Simulation, and
// tears it down — so a sweep of N scenarios is embarrassingly parallel at
// the scenario level while each simulation stays single-threaded and
// deterministic. The runner hands jobs to `jobs` worker threads through an
// atomic claim counter and writes each outcome into its submission-order
// slot, so the merged report is byte-identical whether it ran with one
// worker or sixteen: same labels, same order, and (the determinism
// contract) the same kernel digest per scenario as a serial run.
//
// The single-thread discipline the kernel relies on is preserved: a
// Simulation is created, driven and destroyed on one worker thread, and the
// FrameArena backing coroutine frames and boxed callbacks is thread-local,
// so workers never contend on the hot-path allocator.
#pragma once

#include <string>
#include <vector>

#include "workload/experiment.hpp"

namespace ppfs::exp {

/// One scenario of a sweep: a label for reporting plus the full machine
/// and workload description.
struct SweepJob {
  std::string label;
  workload::MachineSpec machine;
  workload::WorkloadSpec work;
};

/// The result of one job. `error` is non-empty when the experiment threw
/// (the sweep keeps going; the report carries the message).
struct SweepOutcome {
  std::string label;
  workload::ExperimentResult result;
  double seconds = 0;  ///< host wall-clock spent inside this job
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

/// All outcomes in submission order, independent of worker count and of
/// the order jobs happened to finish.
struct SweepReport {
  std::vector<SweepOutcome> outcomes;
  double seconds = 0;  ///< host wall-clock for the whole sweep
  int jobs = 1;        ///< worker count the sweep ran with
  bool all_ok() const noexcept;
};

class SweepRunner {
 public:
  /// `jobs` < 1 is clamped to 1 (serial, runs on the calling thread).
  explicit SweepRunner(int jobs = 1) noexcept : jobs_(jobs < 1 ? 1 : jobs) {}

  int jobs() const noexcept { return jobs_; }

  SweepReport run(const std::vector<SweepJob>& batch) const;

 private:
  int jobs_;
};

/// Convenience wrapper: SweepRunner(workers).run(batch).
SweepReport run_sweep(const std::vector<SweepJob>& batch, int workers);

/// The paper's Table-1-style scenario grid over `base`: each of the five
/// per-node request sizes (64KB..1MB) with prefetching off and on.
/// request_size/file_size/prefetch of `base` are overwritten per job; the
/// file is sized for `rounds` collective rounds (floored at 4MB, like the
/// bench harnesses).
std::vector<SweepJob> paper_table_jobs(const workload::MachineSpec& machine,
                                       const workload::WorkloadSpec& base,
                                       int rounds = 8);

}  // namespace ppfs::exp
