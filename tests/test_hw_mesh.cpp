// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Unit tests for the mesh interconnect, node CPU model, and Machine wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hw/machine.hpp"
#include "hw/mesh.hpp"
#include "hw/node.hpp"
#include "sim/simulation.hpp"

namespace ppfs::hw {
namespace {

using sim::Simulation;
using sim::SimTime;
using sim::Task;

TEST(Mesh, RouteLengthMatchesManhattanDistance) {
  Simulation sim;
  MeshNetwork mesh(sim, MeshConfig{.width = 4, .height = 4});
  EXPECT_EQ(mesh.route(0, 0).size(), 0u);
  EXPECT_EQ(mesh.route(0, 3).size(), 3u);
  EXPECT_EQ(mesh.route(0, 15).size(), 6u);
  EXPECT_EQ(mesh.hop_count(0, 15), 6);
  EXPECT_EQ(mesh.hop_count(5, 6), 1);
}

TEST(Mesh, DimensionOrderedRoutingGoesXFirst) {
  Simulation sim;
  MeshNetwork mesh(sim, MeshConfig{.width = 4, .height = 4});
  // 0 -> 15: east along row 0, then north up column 3.
  auto path = mesh.route(0, 15);
  ASSERT_EQ(path.size(), 6u);
  // First three links leave nodes 0,1,2 eastward (dir 0).
  EXPECT_EQ(path[0], 0 * 4 + 0);
  EXPECT_EQ(path[1], 1 * 4 + 0);
  EXPECT_EQ(path[2], 2 * 4 + 0);
  // Then up from nodes 3, 7, 11 (dir 2).
  EXPECT_EQ(path[3], 3 * 4 + 2);
  EXPECT_EQ(path[4], 7 * 4 + 2);
  EXPECT_EQ(path[5], 11 * 4 + 2);
}

TEST(Mesh, AcquisitionOrderIsTheSortedRoute) {
  // 18x18 is past the route table (tenant_open's mesh: send merges per
  // message); 5x7 has the table and a width that is not the height.
  for (const MeshConfig cfg : {MeshConfig{.width = 18, .height = 18},
                               MeshConfig{.width = 5, .height = 7}}) {
    Simulation sim;
    MeshNetwork mesh(sim, cfg);
    for (NodeId s = 0; s < cfg.node_count(); ++s) {
      for (NodeId d = 0; d < cfg.node_count(); ++d) {
        std::vector<int> sorted = mesh.route(s, d);
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(mesh.acquisition_order(s, d), sorted) << s << " -> " << d;
      }
    }
  }
}

TEST(Mesh, ReverseRouteUsesDifferentLinks) {
  Simulation sim;
  MeshNetwork mesh(sim, MeshConfig{.width = 4, .height = 4});
  auto fwd = mesh.route(0, 5);
  auto rev = mesh.route(5, 0);
  for (int f : fwd) {
    for (int r : rev) EXPECT_NE(f, r);  // directed links
  }
}

TEST(Mesh, InvalidNodeThrows) {
  Simulation sim;
  MeshNetwork mesh(sim, MeshConfig{.width = 2, .height = 2});
  EXPECT_THROW(mesh.route(0, 4), std::out_of_range);
  EXPECT_THROW(mesh.route(-1, 0), std::out_of_range);
}

SimTime timed_send(Simulation& sim, MeshNetwork& mesh, NodeId src, NodeId dst,
                   sim::ByteCount bytes) {
  SimTime out = -1;
  sim.spawn([](Simulation& s, MeshNetwork& m, NodeId a, NodeId b, sim::ByteCount n,
               SimTime& res) -> Task<void> {
    const SimTime start = s.now();
    co_await m.send(a, b, n);
    res = s.now() - start;
  }(sim, mesh, src, dst, bytes, out));
  sim.run();
  return out;
}

TEST(Mesh, SendTimeIncludesSoftwareAndWireComponents) {
  Simulation sim;
  MeshConfig cfg{.width = 4, .height = 4};
  MeshNetwork mesh(sim, cfg);
  const auto t = timed_send(sim, mesh, 0, 3, 1'000'000);
  const double expected = cfg.software_latency + 3 * cfg.hop_latency +
                          1'000'000 / cfg.link_bandwidth;
  EXPECT_NEAR(t, expected, 1e-12);
  EXPECT_EQ(mesh.messages(), 1u);
  EXPECT_EQ(mesh.bytes_moved(), 1'000'000u);
}

TEST(Mesh, LocalSendCostsOnlySoftwareLatency) {
  Simulation sim;
  MeshConfig cfg{.width = 2, .height = 2};
  MeshNetwork mesh(sim, cfg);
  const auto t = timed_send(sim, mesh, 1, 1, 1'000'000);
  EXPECT_NEAR(t, cfg.software_latency, 1e-12);
}

TEST(Mesh, OverlappingPathsContend) {
  // Two messages sharing a link serialize; two on disjoint paths do not.
  MeshConfig cfg{.width = 4, .height = 1};
  const sim::ByteCount big = 10'000'000;

  Simulation sim1;
  MeshNetwork shared(sim1, cfg);
  std::vector<SimTime> done;
  for (int i = 0; i < 2; ++i) {
    sim1.spawn([](Simulation& s, MeshNetwork& m, std::vector<SimTime>& out,
                  sim::ByteCount b) -> Task<void> {
      co_await m.send(0, 3, b);  // same path
      out.push_back(s.now());
    }(sim1, shared, done, big));
  }
  sim1.run();
  ASSERT_EQ(done.size(), 2u);
  const double wire = big / cfg.link_bandwidth;
  EXPECT_GT(done[1], 2 * wire * 0.99);  // serialized

  Simulation sim2;
  MeshNetwork disjoint(sim2, MeshConfig{.width = 4, .height = 2});
  std::vector<SimTime> done2;
  sim2.spawn([](Simulation& s, MeshNetwork& m, std::vector<SimTime>& out,
                sim::ByteCount b) -> Task<void> {
    co_await m.send(0, 3, b);  // row 0
    out.push_back(s.now());
  }(sim2, disjoint, done2, big));
  sim2.spawn([](Simulation& s, MeshNetwork& m, std::vector<SimTime>& out,
                sim::ByteCount b) -> Task<void> {
    co_await m.send(4, 7, b);  // row 1, disjoint
    out.push_back(s.now());
  }(sim2, disjoint, done2, big));
  sim2.run();
  ASSERT_EQ(done2.size(), 2u);
  EXPECT_LT(done2[1], 2 * wire);  // ran in parallel
}

TEST(NodeCpu, CopyTimeScalesWithBytes) {
  Simulation sim;
  CpuParams p;
  NodeCpu cpu(sim, "n0", p);
  EXPECT_DOUBLE_EQ(cpu.copy_time(0), 0.0);
  EXPECT_NEAR(cpu.copy_time(4'000'000), 4'000'000 / p.mem_copy_bandwidth, 1e-12);
}

TEST(NodeCpu, SingleCoreSerializesWork) {
  Simulation sim;
  NodeCpu cpu(sim, "n0", CpuParams{.cores = 1});
  std::vector<SimTime> done;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Simulation& s, NodeCpu& c, std::vector<SimTime>& out) -> Task<void> {
      co_await c.compute(1.0);
      out.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 2.0);
}

TEST(NodeCpu, SmpNodesRunInParallel) {
  Simulation sim;
  NodeCpu cpu(sim, "mp", CpuParams{.cores = 3});
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, NodeCpu& c, std::vector<SimTime>& out) -> Task<void> {
      co_await c.compute(1.0);
      out.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  for (auto t : done) EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(Machine, ParagonPresetShape) {
  Simulation sim;
  Machine m(sim, MachineConfig::paragon(8, 8));
  EXPECT_EQ(m.compute_node_count(), 8);
  EXPECT_EQ(m.io_node_count(), 8);
  EXPECT_EQ(m.config().mesh.width * m.config().mesh.height, 16);
  // Compute and I/O partitions are disjoint.
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(m.io_index_of(m.compute_node(c)), -1);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(m.io_index_of(m.io_node(i)), i);
  }
}

TEST(Machine, OddSizesGetEnoughMeshRows) {
  Simulation sim;
  Machine m(sim, MachineConfig::paragon(8, 1));
  EXPECT_EQ(m.io_node_count(), 1);
  EXPECT_GE(m.config().mesh.node_count(), 9);
  EXPECT_NO_THROW(m.raid(0));
  EXPECT_NO_THROW(m.cpu(m.io_node(0)));
}

TEST(Machine, RejectsZeroNodes) {
  EXPECT_THROW(MachineConfig::paragon(0, 8), std::invalid_argument);
  EXPECT_THROW(MachineConfig::paragon(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::hw
