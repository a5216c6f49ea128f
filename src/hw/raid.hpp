// RAID-3 array behind a SCSI bus — the storage unit of a Paragon I/O node.
//
// RAID-3 byte-stripes every logical block across all data members with a
// dedicated parity drive, and the members operate in lockstep: one logical
// transfer engages every member in parallel, each moving 1/N of the bytes.
// Large streaming transfers therefore run at N x the single-drive media
// rate — until the SCSI bus caps them. The paper's systems used a SCSI-8
// card (and notes SCSI-16 "effectively quadruples the bandwidth available
// on each I/O node"); both are presets here.
//
// Addressing: the array exposes the member LBA space; a logical request at
// lba covers the same lba on every member, with bytes/N per member. Array
// capacity is member capacity x data_disks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::hw {

struct RaidParams {
  DiskParams disk = DiskParams::paragon_era();
  std::uint32_t data_disks = 4;
  /// SCSI bus bandwidth cap (bytes/s). SCSI-8 era card: ~4 MB/s sustained.
  double bus_bandwidth = 4.0e6;
  /// Per-request bus arbitration/command overhead.
  double bus_overhead_s = 0.0004;
  /// XOR rate (bytes/s) for parity reconstruction during degraded-mode
  /// reads — the i860 host recomputing the lost member's share.
  double xor_bandwidth = 25.0e6;

  static RaidParams scsi8();
  static RaidParams scsi16();  // "effectively quadruples the bandwidth"
};

class RaidArray {
 public:
  RaidArray(sim::Simulation& s, std::string name, RaidParams params);
  RaidArray(const RaidArray&) = delete;
  RaidArray& operator=(const RaidArray&) = delete;

  /// Transfer `bytes` at member-space sector `lba`. Members stream in
  /// parallel; the SCSI bus is held concurrently and caps throughput.
  sim::Task<void> transfer(std::uint64_t lba, ByteCount bytes, bool write);

  ByteCount capacity_bytes() const {
    return params_.disk.capacity_bytes() * params_.data_disks;
  }
  std::uint64_t total_sectors() const { return params_.disk.total_sectors(); }
  /// Bytes covered by one member sector across the whole stripe.
  ByteCount stripe_sector_bytes() const {
    return static_cast<ByteCount>(params_.disk.sector_bytes) * params_.data_disks;
  }

  const RaidParams& params() const noexcept { return params_; }
  std::size_t member_count() const noexcept { return members_.size(); }
  Disk& member(std::size_t i) { return *members_.at(i); }

  /// Degraded mode: mark a member (data or parity) as lost. Reads with one
  /// lost data member are reconstructed from the survivors plus parity —
  /// charging the extra parity-member read and XOR time — and stay
  /// byte-correct. A second loss, or a data loss with the parity drive
  /// lost too, makes transfers fail with FaultError(kDiskFailed).
  void fail_member(std::size_t i);
  void restore_member(std::size_t i);
  bool degraded() const noexcept { return failed_count_ > 0; }

  std::uint64_t ops() const noexcept { return ops_; }
  ByteCount bytes_transferred() const noexcept { return bytes_; }
  std::uint64_t reconstructed_reads() const noexcept { return reconstructed_reads_; }
  std::uint64_t degraded_writes() const noexcept { return degraded_writes_; }

 private:
  sim::Task<void> hold_bus(ByteCount bytes);
  std::size_t parity_index() const { return members_.size() - 1; }

  sim::Simulation& sim_;
  std::string name_;
  RaidParams params_;
  std::vector<std::unique_ptr<Disk>> members_;  // data disks, then the parity disk
  sim::Resource bus_;
  std::vector<bool> failed_;
  std::size_t failed_count_ = 0;

  std::uint64_t ops_ = 0;
  ByteCount bytes_ = 0;
  std::uint64_t reconstructed_reads_ = 0;
  std::uint64_t degraded_writes_ = 0;
};

}  // namespace ppfs::hw
