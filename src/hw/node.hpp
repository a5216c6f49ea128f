// A Paragon node's processor complex: i860 cores plus a memory-copy cost
// model.
//
// Why copies matter here: in the normal (non-prefetching) Fast Path, data
// lands directly in the user's buffer; with prefetching it is staged in a
// kernel-side prefetch buffer and later copied to the user buffer. That
// copy — plus the per-request setup of an asynchronous request — is exactly
// the overhead the paper observes for small requests, so the node model
// charges both explicitly.
#pragma once

#include <cstdint>
#include <string>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::hw {

using sim::ByteCount;
using sim::SimTime;

struct CpuParams {
  /// i860 nodes had 1 CPU; MP nodes had 3 ("SMP nodes are available with
  /// three i860 processors").
  std::uint32_t cores = 1;
  /// Achievable kernel memcpy bandwidth (bytes/s). i860-era copies through
  /// the OS ran in the tens of MB/s.
  double mem_copy_bandwidth = 40.0e6;
  /// Fixed cost of entering the kernel for an I/O request.
  double syscall_overhead = 30.0e-6;
  /// Cost of setting up an asynchronous request structure + thread (the
  /// Paragon ART setup and posting phases).
  double async_setup_overhead = 60.0e-6;
  /// Cost of allocating/freeing a prefetch buffer in node memory.
  double buffer_mgmt_overhead = 25.0e-6;
};

class NodeCpu {
 public:
  NodeCpu(sim::Simulation& s, std::string name, CpuParams params)
      : sim_(s), name_(std::move(name)), params_(params), cores_(s, params.cores) {}
  NodeCpu(const NodeCpu&) = delete;
  NodeCpu& operator=(const NodeCpu&) = delete;

  /// Occupy a core for `t` seconds of work.
  sim::Task<void> compute(SimTime t) {
    auto guard = co_await cores_.acquire();
    co_await sim_.delay(t);
    busy_ += t;
  }

  /// Memory-to-memory copy of `bytes` (occupies a core).
  sim::Task<void> copy(ByteCount bytes) { return compute(copy_time(bytes)); }

  SimTime copy_time(ByteCount bytes) const {
    return static_cast<double>(bytes) / params_.mem_copy_bandwidth;
  }

  const CpuParams& params() const noexcept { return params_; }
  const std::string& name() const noexcept { return name_; }
  SimTime busy_time() const noexcept { return busy_; }

 private:
  sim::Simulation& sim_;
  std::string name_;
  CpuParams params_;
  sim::Resource cores_;
  SimTime busy_ = 0;
};

}  // namespace ppfs::hw
