#include "hw/disk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/error.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace ppfs::hw {

double DiskParams::seek_time_s(std::uint64_t cylinder_distance) const {
  if (cylinder_distance == 0) return 0.0;
  const double d = static_cast<double>(cylinder_distance);
  // Short seeks are dominated by acceleration (sqrt regime); long seeks by
  // constant-velocity travel (linear regime). Take the max so the curve is
  // monotone without a fitted crossover point.
  const double short_seek = seek_base_s + seek_sqrt_coeff_s * std::sqrt(d);
  const double long_seek = seek_base_s + seek_linear_coeff_s * d;
  return std::max(short_seek, long_seek);
}

DiskParams DiskParams::paragon_era() {
  return DiskParams{};  // the defaults are the Paragon-era drive
}

Disk::Disk(sim::Simulation& s, std::string name, DiskParams params)
    : sim_(s), name_(std::move(name)), params_(params), channel_(s, 1) {}

double Disk::rotational_wait(std::uint64_t lba, SimTime at) const {
  const double period = params_.rotation_period_s();
  // Platter angle as a fraction of a revolution, derived from wall time.
  const double current_angle = std::fmod(at, period) / period;
  const double target_angle =
      static_cast<double>(lba % params_.sectors_per_track) / params_.sectors_per_track;
  double wait_frac = target_angle - current_angle;
  if (wait_frac < 0) wait_frac += 1.0;
  return wait_frac * period;
}

sim::Task<void> Disk::transfer(std::uint64_t lba, ByteCount bytes, bool write) {
  const std::uint64_t sectors =
      (bytes + params_.sector_bytes - 1) / params_.sector_bytes;
  if (lba + sectors > params_.total_sectors()) {
    throw std::out_of_range("Disk::transfer: access past end of medium on " + name_);
  }

  if (params_.scheduler == DiskSched::kElevator) {
    // Park in the elevator; the dispatcher admits us in cylinder order.
    const std::uint64_t id = next_request_id_++;
    PendingRequest& req = pending_[id];
    req.grant = std::make_unique<sim::Event>(sim_);
    req.done = std::make_unique<sim::Event>(sim_);
    equeue_.push(id, lba_to_cylinder(lba));
    if (!dispatcher_running_) {
      dispatcher_running_ = true;
      sim_.spawn(elevator_dispatch());
    }
    co_await req.grant->wait();
    try {
      co_await service(lba, bytes, write, sectors);
    } catch (...) {
      // The dispatcher is joined on `done`; an injected error must still
      // release it or the elevator wedges forever.
      pending_.at(id).done->set();
      throw;
    }
    pending_.at(id).done->set();
    co_return;
  }

  auto guard = co_await channel_.acquire();
  co_await service(lba, bytes, write, sectors);
}

sim::Task<void> Disk::elevator_dispatch() {
  while (!equeue_.empty()) {
    const std::uint64_t id = equeue_.pop_next(head_cylinder_);
    PendingRequest& req = pending_.at(id);
    req.grant->set();
    co_await req.done->wait();
    pending_.erase(id);
  }
  dispatcher_running_ = false;
}

void Disk::inject_slowdown(double factor, SimTime from, SimTime until) {
  if (factor <= 0) throw std::invalid_argument("Disk::inject_slowdown: factor must be > 0");
  slow_windows_.push_back(SlowWindow{factor, from, until});
}

void Disk::inject_transient_errors(SimTime from, SimTime until, std::uint64_t max_errors) {
  if (until <= from) {
    throw std::invalid_argument("Disk::inject_transient_errors: empty window");
  }
  transient_windows_.push_back(TransientWindow{from, until, max_errors});
}

bool Disk::consume_transient_error() {
  const SimTime now = sim_.now();
  for (TransientWindow& w : transient_windows_) {
    if (now >= w.from && now < w.until && w.budget > 0) {
      --w.budget;
      ++transient_errors_fired_;
      return true;
    }
  }
  return false;
}

double Disk::slowdown_factor_now() const {
  double f = 1.0;
  const SimTime now = sim_.now();
  for (const SlowWindow& w : slow_windows_) {
    if (now >= w.from && now < w.until) f *= w.factor;
  }
  return f;
}

std::int32_t Disk::trace_resource(trace::TraceSink& sink) {
  if (trace_res_ < 0) {
    trace_res_ = sink.register_resource(trace::TraceTrack::kDisk, name_.c_str());
  }
  return trace_res_;
}

sim::Task<void> Disk::service(std::uint64_t lba, ByteCount bytes, bool write,
                              std::uint64_t sectors) {
  if (consume_transient_error()) {
    // The drive accepted the command, spent its command processing time,
    // then returned a medium error; head state is unchanged.
    if (trace::TraceSink* sink = sim_.trace()) {
      sink->record(trace::TraceRecord(sim_.now(), trace::TraceKind::kInstant,
                                      trace::TraceTrack::kDisk, trace::code::kDiskTransient,
                                      trace_resource(*sink), 0, bytes, lba,
                                      trace::kFlagFault));
    }
    co_await sim_.delay(params_.controller_overhead_s);
    throw fault::FaultError(fault::ErrorCause::kDiskTransient,
                            name_ + ": injected transient error");
  }
  SimTime t = params_.controller_overhead_s;
  const bool sequential = (lba == next_sequential_lba_);
  if (sequential && !write) {
    ++sequential_hits_;
  } else {
    const std::uint64_t cyl = lba_to_cylinder(lba);
    const std::uint64_t dist = cyl > head_cylinder_ ? cyl - head_cylinder_ : head_cylinder_ - cyl;
    t += params_.seek_time_s(dist);
    t += rotational_wait(lba, sim_.now() + t);
  }
  t += static_cast<double>(bytes) / params_.media_rate_bytes_per_s();
  const double slow = slowdown_factor_now();
  if (slow != 1.0) {
    t *= slow;
    ++slowed_ops_;
  }

  // The channel admits one request at a time, so per-disk service spans
  // never overlap: plain B/E pairs on the disk's timeline row.
  std::uint8_t span_flags = 0;
  if (sequential && !write) span_flags |= trace::kFlagSequential;
  if (write) span_flags |= trace::kFlagWrite;
  if (trace::TraceSink* sink = sim_.trace()) {
    sink->record(trace::TraceRecord(sim_.now(), trace::TraceKind::kSpanBegin,
                                    trace::TraceTrack::kDisk,
                                    write ? trace::code::kDiskWrite : trace::code::kDiskRead,
                                    trace_resource(*sink), 0, bytes, lba, span_flags));
  }

  co_await sim_.delay(t);

  if (trace::TraceSink* sink = sim_.trace()) {
    sink->record(trace::TraceRecord(sim_.now(), trace::TraceKind::kSpanEnd,
                                    trace::TraceTrack::kDisk,
                                    write ? trace::code::kDiskWrite : trace::code::kDiskRead,
                                    trace_resource(*sink), 0, bytes, lba, span_flags));
  }

  head_cylinder_ = lba_to_cylinder(lba + sectors - 1);
  next_sequential_lba_ = lba + sectors;
  ++ops_;
  bytes_ += bytes;
  busy_time_ += t;
}

}  // namespace ppfs::hw
