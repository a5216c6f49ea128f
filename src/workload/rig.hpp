// The run skeleton the four workload drivers share (Experiment::run,
// run_open_arrival, run_write_workload, replay_trace). Internal to
// src/workload.
//
// A Rig owns one run's machine: the Simulation, the hardware, the mount,
// one client per process and, on request, one prefetch engine per client.
// A driver uses it in four steps:
//
//   1. run_populate: the loads it needs run to completion through one join;
//   2. start_phase: the per-client baselines of the measured-phase counters
//      are taken and the fault plan is armed, relative to now;
//   3. the driver spawns its per-client coroutines and runs the simulation
//      until it drains;
//   4. collect: every field of the shared RunCounters block is filled, and
//      the SimCheck end-of-run ledgers (token, cache-bitmap and fault
//      conservation) are checked.
//
// The two read drivers (Experiment::run, replay_trace) do steps 3 and 4 in
// one, run_reads: each compiles its input into one ReadPlan per rank, and
// the rig's one reader runs, verifies and tallies every plan. The other two
// drivers keep only their validation, their plan, their per-client
// coroutine and the fold of their own outcomes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "sim/simulation.hpp"
#include "workload/experiment.hpp"
#include "workload/trace.hpp"

namespace ppfs::workload::detail {

/// The mesh layout a driver builds. MachineConfig::paragon and
/// paragon_scaled agree up to 16 nodes and differ above, so the choice
/// stays with the driver.
enum class Topology { kParagon, kParagonScaled };

/// Write `size` bytes into an existing file through the full stack, in 1 MB
/// chunks. Tag 0 writes zeros from one read-only zero region (the I/O
/// nodes' content stores keep no memory for them); any other tag writes its
/// test pattern. `name` is taken by
/// value: the Task is stored and awaited later, so a reference to a caller
/// temporary would dangle.
sim::Task<void> populate(pfs::PfsClient& loader, std::string name, std::uint64_t tag,
                         ByteCount size);

/// One rank's program in a read phase: a node of Experiment::run or a rank
/// of replay_trace. The reader opens `file` in `mode`, seeks to `start`
/// (when nonzero) before the start line, then runs `ops` in order; a
/// read's think time follows it.
struct ReadPlan {
  std::string file;
  pfs::IoMode mode = pfs::IoMode::kUnix;
  std::uint64_t tag = 0;  // the pattern `file` was populated with
  FileOffset start = 0;
  bool fastpath = true;
  std::vector<TraceOp> ops;
};

class Rig {
 public:
  /// Build the machine of `spec` with `nclients` processes (rank r on
  /// compute node r). `sink` (may be null) traces the whole run.
  Rig(const MachineSpec& spec, Topology topology, int nclients, trace::TraceSink* sink);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  sim::Simulation& sim() noexcept { return sim_; }
  pfs::PfsFileSystem& fs() noexcept { return fs_; }
  pfs::PfsClient& client(int rank) { return *clients_[static_cast<std::size_t>(rank)]; }

  void attach_prefetchers(const prefetch::PrefetchConfig& cfg);

  /// Run `loads` to completion through one join. `who` names the driver in
  /// the deadlock error. An empty list schedules nothing.
  void run_populate(std::vector<sim::Task<void>> loads, const char* who);

  /// Take the measured-phase baselines and arm `plan` relative to now.
  void start_phase(const fault::FaultPlan& plan);

  /// Fill every field of `out`. `app_errors` is the number of FaultErrors
  /// the driver's application code caught.
  void collect(RunCounters& out, std::uint64_t app_errors);

  /// The read phase: rank r runs plans[r] on client r, all ranks leave one
  /// start line together, and the simulation runs until it drains. A read
  /// that throws FaultError counts as an app error. With `verify`, the
  /// bytes of each read that returned are checked against the plan's
  /// pattern at the offset its mode put them at: M_LOG and M_SYNC at the
  /// pointer after the call minus the bytes moved, M_RECORD at the pointer
  /// before it plus rank x length, every other mode at the pointer before
  /// it. Throws
  /// (naming `who`) if a reader did not finish. Then collect fills `out`,
  /// with the readers' tallies folded in and wall_elapsed (first start to
  /// last read), mean_read_call_time, observed_read_bw_mbs and wall_bw_mbs
  /// derived.
  void run_reads(const std::vector<ReadPlan>& plans, bool verify, ExperimentResult& out,
                 const char* who);

 private:
  /// A client's measured-phase counters at phase start.
  struct Baseline {
    sim::SimTime read_time = 0;
    sim::SimTime write_time = 0;
    std::uint64_t writes = 0;
    ByteCount bytes_written = 0;
  };

  // Declaration order is construction order: the arena's high-water is
  // reset first, so frame_arena_bytes is this run's own peak whatever ran
  // on the thread before, and the Simulation outlives everything built on
  // it.
  std::uint64_t arena_base_;
  sim::Simulation sim_;
  hw::Machine machine_;
  pfs::PfsFileSystem fs_;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients_;
  std::vector<std::unique_ptr<prefetch::PrefetchEngine>> engines_;
  fault::FaultInjector injector_;
  std::vector<Baseline> base_;
};

}  // namespace ppfs::workload::detail
