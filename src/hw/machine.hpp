// Machine: the assembled Paragon — mesh + nodes + per-I/O-node RAID arrays.
//
// Node placement follows the Paragon's physical organization: compute nodes
// fill the mesh from one side, I/O nodes from the other, so compute<->I/O
// traffic crosses the mesh (and contends) as it did on the real machine.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/mesh.hpp"
#include "hw/node.hpp"
#include "hw/raid.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"

namespace ppfs::hw {

struct MachineConfig {
  MeshConfig mesh;
  CpuParams compute_cpu;
  CpuParams io_cpu;
  RaidParams raid = RaidParams::scsi8();
  std::vector<NodeId> compute_nodes;
  std::vector<NodeId> io_nodes;

  /// The paper's testbed: `ncompute` compute nodes and `nio` I/O nodes
  /// (default 8+8 on a 4x4 mesh), one SCSI-8 RAID per I/O node.
  static MachineConfig paragon(int ncompute = 8, int nio = 8,
                               RaidParams raid_params = RaidParams::scsi8());

  /// Production-scale variant: same compute-from-the-bottom /
  /// I/O-from-the-top placement, but on a near-square mesh (width ~
  /// sqrt(total)) instead of paragon()'s fixed width-4 column. At 1024x256
  /// a width-4 mesh would be 4x320 with ~300-hop worst-case routes; the
  /// square mesh keeps route lengths O(sqrt(n)), like any real large
  /// machine. paragon() is untouched so existing digests stay bit-identical.
  static MachineConfig paragon_scaled(int ncompute, int nio,
                                      RaidParams raid_params = RaidParams::scsi8());
};

class Machine {
 public:
  Machine(sim::Simulation& s, MachineConfig cfg);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }
  MeshNetwork& mesh() noexcept { return *mesh_; }
  const MachineConfig& config() const noexcept { return cfg_; }

  int compute_node_count() const { return static_cast<int>(cfg_.compute_nodes.size()); }
  int io_node_count() const { return static_cast<int>(cfg_.io_nodes.size()); }

  /// Mesh id of the i-th compute / I/O node.
  NodeId compute_node(int i) const { return cfg_.compute_nodes.at(i); }
  NodeId io_node(int i) const { return cfg_.io_nodes.at(i); }

  /// CPU of an arbitrary mesh node.
  NodeCpu& cpu(NodeId node) { return cpus_.at(node); }
  /// RAID array of the i-th I/O node.
  RaidArray& raid(int io_index) { return raids_.at(io_index); }

  /// Reverse lookup: which I/O index owns this mesh node (-1 if none).
  /// O(1): reads the node-indexed shard table, not a scan of io_nodes.
  int io_index_of(NodeId node) const {
    if (node < 0 || node >= static_cast<NodeId>(io_index_by_node_.size())) return -1;
    return io_index_by_node_[static_cast<std::size_t>(node)];
  }

  /// Footprint of the per-node state arenas (CPUs + RAID arrays + the
  /// mesh's link arena) — the machine's share of the scale report.
  std::size_t state_memory_bytes() const noexcept {
    return cpus_.memory_bytes() + raids_.memory_bytes() + mesh_->links_memory_bytes();
  }

 private:
  sim::Simulation& sim_;
  MachineConfig cfg_;
  std::unique_ptr<MeshNetwork> mesh_;
  sim::ShardArena<NodeCpu> cpus_;      // one per mesh node, indexed by node id
  sim::ShardArena<RaidArray> raids_;   // one per I/O node, indexed by io index
  std::vector<int> io_index_by_node_;  // mesh node id -> io index (-1 if none)
};

}  // namespace ppfs::hw
