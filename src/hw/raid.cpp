#include "hw/raid.hpp"

#include <stdexcept>

#include "fault/error.hpp"
#include "sim/check/audit.hpp"
#include "sim/inline_vec.hpp"
#include "sim/when_all.hpp"

namespace ppfs::hw {

RaidParams RaidParams::scsi8() { return RaidParams{}; }

RaidParams RaidParams::scsi16() {
  RaidParams p;
  p.bus_bandwidth = 16.0e6;
  return p;
}

RaidArray::RaidArray(sim::Simulation& s, std::string name, RaidParams params)
    : sim_(s), name_(std::move(name)), params_(params), bus_(s, 1) {
  if (params_.data_disks == 0) throw std::invalid_argument("RaidArray: need >= 1 data disk");
  const std::uint32_t total = params_.data_disks + 1;
  members_.reserve(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    const bool is_parity = i == total - 1;
    members_.push_back(std::make_unique<Disk>(
        s, name_ + (is_parity ? "/parity" : "/d" + std::to_string(i)), params_.disk));
  }
  failed_.assign(members_.size(), false);
}

void RaidArray::fail_member(std::size_t i) {
  if (!failed_.at(i)) {
    failed_[i] = true;
    ++failed_count_;
  }
}

void RaidArray::restore_member(std::size_t i) {
  if (failed_.at(i)) {
    failed_[i] = false;
    --failed_count_;
  }
}

sim::Task<void> RaidArray::hold_bus(ByteCount bytes) {
  auto guard = co_await bus_.acquire();
  co_await sim_.delay(params_.bus_overhead_s +
                      static_cast<double>(bytes) / params_.bus_bandwidth);
}

sim::Task<void> RaidArray::transfer(std::uint64_t lba, ByteCount bytes, bool write) {
  if (bytes == 0) co_return;
  // Lockstep: each data member moves an equal share; the parity member
  // participates in writes. Member transfers and the host-side SCSI bus
  // stream concurrently; completion is gated by the slowest of them.
  const ByteCount per_member =
      (bytes + params_.data_disks - 1) / params_.data_disks;

  std::size_t dead_data = 0;
  bool parity_dead = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) continue;
    if (i == parity_index()) {
      parity_dead = true;
    } else {
      ++dead_data;
    }
  }
  // RAID-3 survives exactly one lost data member, and only with a live
  // parity drive to reconstruct from.
  if (dead_data > 1 || (dead_data == 1 && parity_dead)) {
    throw fault::FaultError(fault::ErrorCause::kDiskFailed,
                            name_ + ": member set unreadable (lost " +
                                std::to_string(dead_data + (parity_dead ? 1 : 0)) +
                                " members)");
  }
  const bool reconstruct = !write && dead_data == 1;

  // ppfs::hot — per-transfer fan-out over the members and the bus, in
  // inline storage
  sim::InlineVec<sim::Task<void>, 8> parts;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i]) continue;  // lost member: its share comes from parity
    const bool is_parity = i == parity_index();
    // The parity drive is idle on healthy reads but must be read to
    // reconstruct a lost data member's share.
    if (is_parity && !write && !reconstruct) continue;
    parts.push_back(members_[i]->transfer(lba, per_member, write));
  }
  parts.push_back(hold_bus(bytes));
  // Propagating join: an injected transient error on one member must
  // surface to the caller as a retryable fault, not kill the run.
  co_await sim::when_all_propagate(sim_, parts);
  // ppfs::endhot

  if (reconstruct) {
    // XOR of the surviving data members + parity regenerates the lost share.
    co_await sim_.delay(static_cast<double>(bytes) / params_.xor_bandwidth);
    ++reconstructed_reads_;
    if (auto* a = sim_.auditor()) {
      a->on_fault_observed();
      a->on_fault_reconstructed();
    }
  }
  if (write && (dead_data > 0 || parity_dead)) ++degraded_writes_;

  ++ops_;
  bytes_ += bytes;
}

}  // namespace ppfs::hw
