// A mechanical disk model of the early-1990s SCSI class used in Paragon
// I/O nodes.
//
// Timing = controller overhead + seek + rotational latency + media
// transfer, with a simple on-drive track cache: a read that starts exactly
// where the previous transfer ended skips the seek and rotational
// components (the drive's own read-ahead has the data). Rotational position
// is derived deterministically from simulated time (the platter spins
// continuously), so runs are reproducible without a rotational-latency RNG.
//
// The per-disk channel admits one outstanding operation; queueing happens
// in front of it (FIFO), which is how a single-LUN SCSI target behaves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk_sched.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::hw {

using sim::ByteCount;
using sim::SimTime;

struct DiskParams {
  // Geometry.
  std::uint32_t sector_bytes = 512;
  std::uint32_t sectors_per_track = 72;
  std::uint32_t heads = 19;            // tracks per cylinder
  std::uint32_t cylinders = 1962;

  // Mechanics.
  double rpm = 4002.0;
  double seek_base_s = 0.0025;         // settle for a 1-cylinder move
  double seek_sqrt_coeff_s = 0.00045;  // short-seek sqrt term
  double seek_linear_coeff_s = 3.0e-6; // long-seek linear term

  // Electronics.
  double controller_overhead_s = 0.0011;  // per-request command processing

  /// Pending-request ordering: FIFO driver queue (default) or LOOK
  /// elevator (reorders by cylinder; helps interleaved multi-client runs).
  DiskSched scheduler = DiskSched::kFifo;

  std::uint64_t total_sectors() const {
    return static_cast<std::uint64_t>(sectors_per_track) * heads * cylinders;
  }
  ByteCount capacity_bytes() const { return total_sectors() * sector_bytes; }
  double rotation_period_s() const { return 60.0 / rpm; }
  /// Sustained media rate while transferring (one track per revolution).
  double media_rate_bytes_per_s() const {
    return static_cast<double>(sectors_per_track) * sector_bytes / rotation_period_s();
  }
  /// HP-97560-style seek curve: sqrt for short seeks, linear for long.
  double seek_time_s(std::uint64_t cylinder_distance) const;

  /// A parameter set resembling the drives shipped in Paragon I/O nodes.
  static DiskParams paragon_era();
};

class Disk {
 public:
  Disk(sim::Simulation& s, std::string name, DiskParams params);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Transfer `bytes` starting at logical sector `lba`. Suspends the caller
  /// for the full mechanical latency. Throws std::out_of_range past the end
  /// of the medium.
  sim::Task<void> transfer(std::uint64_t lba, ByteCount bytes, bool write);

  const DiskParams& params() const noexcept { return params_; }
  const std::string& name() const noexcept { return name_; }

  /// Fault injection: multiply the service time of every request whose
  /// start falls in [from, until) by `factor` (>1 = degraded drive —
  /// thermal recalibration, vibrating rack, failing head). Windows may
  /// overlap; factors compound. Data integrity is never affected.
  void inject_slowdown(double factor, SimTime from, SimTime until);
  std::uint64_t slowed_ops() const noexcept { return slowed_ops_; }

  /// Fault injection: up to `max_errors` requests whose service starts in
  /// [from, until) fail with fault::FaultError(kDiskTransient) after the
  /// controller overhead (command accepted, medium error returned). Models
  /// transient/latent-sector errors; a retry of the same request succeeds
  /// once the window's budget is spent.
  void inject_transient_errors(SimTime from, SimTime until, std::uint64_t max_errors);
  std::uint64_t transient_errors_fired() const noexcept { return transient_errors_fired_; }

  // Instrumentation.
  std::uint64_t ops() const noexcept { return ops_; }
  ByteCount bytes_transferred() const noexcept { return bytes_; }
  SimTime busy_time() const noexcept { return busy_time_; }
  std::uint64_t sequential_hits() const noexcept { return sequential_hits_; }

 private:
  std::uint64_t lba_to_cylinder(std::uint64_t lba) const {
    return lba / (static_cast<std::uint64_t>(params_.sectors_per_track) * params_.heads);
  }
  double rotational_wait(std::uint64_t lba, SimTime at) const;

  /// The mechanical service of one admitted request (no queueing).
  sim::Task<void> service(std::uint64_t lba, ByteCount bytes, bool write,
                          std::uint64_t sectors);

  struct PendingRequest {
    std::unique_ptr<sim::Event> grant;  // dispatcher -> request: your turn
    std::unique_ptr<sim::Event> done;   // request -> dispatcher: finished
  };
  sim::Task<void> elevator_dispatch();

  sim::Simulation& sim_;
  std::string name_;
  DiskParams params_;
  sim::Resource channel_;

  ElevatorQueue equeue_;
  std::map<std::uint64_t, PendingRequest> pending_;
  std::uint64_t next_request_id_ = 0;
  bool dispatcher_running_ = false;

  struct SlowWindow {
    double factor;
    SimTime from;
    SimTime until;
  };
  double slowdown_factor_now() const;
  std::vector<SlowWindow> slow_windows_;
  std::uint64_t slowed_ops_ = 0;

  struct TransientWindow {
    SimTime from;
    SimTime until;
    std::uint64_t budget;
  };
  bool consume_transient_error();
  std::vector<TransientWindow> transient_windows_;
  std::uint64_t transient_errors_fired_ = 0;

  /// TraceScope resource id for this disk, registered lazily on the first
  /// traced service (so untraced runs never touch the registry).
  std::int32_t trace_resource(trace::TraceSink& sink);
  std::int32_t trace_res_ = -1;

  std::uint64_t head_cylinder_ = 0;
  std::uint64_t next_sequential_lba_ = ~0ull;  // track-cache continuation point

  std::uint64_t ops_ = 0;
  ByteCount bytes_ = 0;
  SimTime busy_time_ = 0;
  std::uint64_t sequential_hits_ = 0;
};

}  // namespace ppfs::hw
