#include "hw/machine.hpp"

#include <algorithm>

namespace ppfs::hw {

MachineConfig MachineConfig::paragon(int ncompute, int nio, RaidParams raid_params) {
  if (ncompute <= 0 || nio <= 0) {
    throw std::invalid_argument("MachineConfig::paragon: need >=1 compute and I/O node");
  }
  MachineConfig cfg;
  cfg.raid = raid_params;
  const int total = ncompute + nio;
  cfg.mesh.width = 4;
  cfg.mesh.height = (total + cfg.mesh.width - 1) / cfg.mesh.width;
  // Compute nodes fill from mesh id 0 upward; I/O nodes from the top end
  // downward, mirroring the Paragon's partitioned backplane.
  for (int i = 0; i < ncompute; ++i) cfg.compute_nodes.push_back(i);
  for (int i = 0; i < nio; ++i) cfg.io_nodes.push_back(cfg.mesh.node_count() - nio + i);
  return cfg;
}

MachineConfig MachineConfig::paragon_scaled(int ncompute, int nio, RaidParams raid_params) {
  if (ncompute <= 0 || nio <= 0) {
    throw std::invalid_argument("MachineConfig::paragon_scaled: need >=1 compute and I/O node");
  }
  MachineConfig cfg;
  cfg.raid = raid_params;
  const int total = ncompute + nio;
  int width = 4;
  while (width * width < total) ++width;  // near-square: width = ceil(sqrt(total))
  cfg.mesh.width = width;
  cfg.mesh.height = (total + width - 1) / width;
  for (int i = 0; i < ncompute; ++i) cfg.compute_nodes.push_back(i);
  for (int i = 0; i < nio; ++i) cfg.io_nodes.push_back(cfg.mesh.node_count() - nio + i);
  return cfg;
}

Machine::Machine(sim::Simulation& s, MachineConfig cfg) : sim_(s), cfg_(std::move(cfg)) {
  mesh_ = std::make_unique<MeshNetwork>(s, cfg_.mesh);
  // Per-node state lives in node-id-indexed arenas: one contiguous block
  // per entity kind instead of a heap allocation per node (see
  // sim/shard.hpp). Construction order is node id order, exactly as the
  // unique_ptr vectors it replaces, so digests are unchanged.
  io_index_by_node_.assign(static_cast<std::size_t>(cfg_.mesh.node_count()), -1);
  for (std::size_t i = 0; i < cfg_.io_nodes.size(); ++i) {
    const NodeId n = cfg_.io_nodes[i];
    if (n < 0 || n >= cfg_.mesh.node_count()) {
      throw std::out_of_range("Machine: I/O node id outside the mesh");
    }
    io_index_by_node_[static_cast<std::size_t>(n)] = static_cast<int>(i);
  }
  cpus_.reserve(static_cast<std::size_t>(cfg_.mesh.node_count()));
  for (int n = 0; n < cfg_.mesh.node_count(); ++n) {
    const bool is_io = io_index_by_node_[static_cast<std::size_t>(n)] >= 0;
    cpus_.emplace_back(s, (is_io ? "io-cpu" : "cpu") + std::to_string(n),
                       is_io ? cfg_.io_cpu : cfg_.compute_cpu);
  }
  raids_.reserve(cfg_.io_nodes.size());
  for (std::size_t i = 0; i < cfg_.io_nodes.size(); ++i) {
    raids_.emplace_back(s, "raid" + std::to_string(i), cfg_.raid);
  }
  for (NodeId n : cfg_.compute_nodes) mesh_->route(n, n);  // validates ids
  for (NodeId n : cfg_.io_nodes) mesh_->route(n, n);
}

}  // namespace ppfs::hw
