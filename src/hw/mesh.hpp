// The Paragon 2-D mesh interconnect.
//
// Nodes sit on a width x height grid; messages follow dimension-ordered
// (X then Y) wormhole routing. Every message goes through one loop over its
// segments. A segment holds every directed link on the message's path for
// its wire time, which captures the head-of-line blocking that makes
// concurrent full-file reads contend. Links along the path are acquired in
// a canonical (ascending) order so concurrent setups cannot deadlock.
//
// With mtu == 0 (the legacy model), or a message that fits in the MTU, the
// message is one segment: a circuit that holds the whole route for the
// whole transfer. With mtu > 0, larger messages are cut into MTU-sized
// segments that take and yield the route segment-by-segment, so a long
// transfer shares its links with competing traffic at MTU granularity
// instead of circuit-blocking the whole route. Segment wire times pipeline
// the per-hop router latency away: the head segment pays
// hops x hop_latency + seg/bandwidth, every later segment only
// seg/bandwidth (its flits stream behind the head). An uncontended message
// keeps the route between segments (one acquisition, one event per
// segment: O(path + segments) work); only when another message queues on a
// path link does the sender release and re-acquire, which is exactly the
// sharing the model exists to expose.
//
// Per-message time = software injection latency (charged before links are
// held) + hops x per-hop router latency + bytes / link bandwidth; the same
// total at any MTU when uncontended.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::hw {

using NodeId = int;
using sim::ByteCount;
using sim::SimTime;

struct MeshConfig {
  int width = 4;
  int height = 4;
  /// Raw link bandwidth, bytes/s. Paragon links ran at ~175 MB/s.
  double link_bandwidth = 175.0e6;
  /// Router latency per hop.
  double hop_latency = 40.0e-9;
  /// OS message-passing software overhead per message (send+receive path).
  double software_latency = 45.0e-6;
  /// Maximum transfer unit for pipelined transfers, in bytes. Every
  /// message goes through one segment loop; a message is one segment (the
  /// legacy circuit: one wire event holds the whole route for the full
  /// message duration) when the MTU is 0, the default, or the message fits
  /// in it. Messages above a nonzero MTU move as MTU-sized segments that
  /// yield the route to queued competitors between segments.
  ByteCount mtu = 0;

  int node_count() const { return width * height; }
};

class MeshNetwork {
 public:
  MeshNetwork(sim::Simulation& s, MeshConfig cfg);
  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;

  /// Deliver a message of `bytes` from src to dst. Suspends the caller for
  /// the full transfer (rendezvous semantics: the data has arrived when
  /// this resumes). src == dst costs only the software latency.
  sim::Task<void> send(NodeId src, NodeId dst, ByteCount bytes);

  /// The directed link ids a message from src to dst traverses, in path
  /// order. Exposed for tests and the declustering demo.
  std::vector<int> route(NodeId src, NodeId dst) const;
  /// The same links in the order a message acquires them: ascending id,
  /// which keeps concurrent acquisitions deadlock-free. Exposed for tests.
  std::vector<int> acquisition_order(NodeId src, NodeId dst) const;

  int hop_count(NodeId src, NodeId dst) const;
  const MeshConfig& config() const noexcept { return cfg_; }

  /// Fault injection: degrade the mesh around `node` — any message whose
  /// source, destination, or path touches it has its wire time multiplied
  /// by `factor` while the transfer starts in [from, until). Models a
  /// flaky router or backplane partition window (a large factor is an
  /// effective partition); overlapping windows compound. Delivery always
  /// eventually happens — wormhole circuits do not drop data.
  void inject_node_slowdown(NodeId node, double factor, SimTime from, SimTime until);

  std::uint64_t messages() const noexcept { return messages_; }
  ByteCount bytes_moved() const noexcept { return bytes_; }
  /// Messages that moved as more than one segment, and the segments they
  /// moved as. A one-segment message counts in neither.
  std::uint64_t segmented_messages() const noexcept { return segmented_messages_; }
  std::uint64_t segments_sent() const noexcept { return segments_sent_; }
  /// Total time the given directed link spent occupied.
  SimTime link_busy_time(int link_id) const { return link_busy_.at(link_id); }
  /// The k busiest directed links as (link id, busy time), busiest first
  /// (ties broken by ascending id). Links with zero busy time are omitted.
  std::vector<std::pair<int, SimTime>> top_busy_links(std::size_t k) const;

  /// Footprint of the link-state arena plus the busy-time table — the
  /// mesh's contribution to Machine::state_memory_bytes().
  std::size_t links_memory_bytes() const noexcept {
    return links_.memory_bytes() + link_busy_.capacity() * sizeof(SimTime);
  }

 private:
  // Directed link leaving `node` toward direction d (0=+x,1=-x,2=+y,3=-y).
  int link_id(NodeId node, int dir) const { return node * 4 + dir; }
  void check_node(NodeId n) const;

  // Dimension-ordered walk invoking fn(link_id) per hop, X first then Y.
  template <typename Fn>
  void walk_route(NodeId src, NodeId dst, Fn&& fn) const {
    int x = src % cfg_.width, y = src / cfg_.width;
    const int dx = dst % cfg_.width, dy = dst / cfg_.width;
    while (x != dx) {
      const int dir = dx > x ? 0 : 1;
      fn(link_id(y * cfg_.width + x, dir));
      x += dx > x ? 1 : -1;
    }
    while (y != dy) {
      const int dir = dy > y ? 2 : 3;
      fn(link_id(y * cfg_.width + x, dir));
      y += dy > y ? 1 : -1;
    }
  }

  // Emits a route's links in ascending id order. An X-then-Y route is two
  // monotone runs of ids (a hop moves the node id by 1 along X and by the
  // width along Y, in one direction per axis): its first `xhops` links and
  // the rest. Walking each run from its low end and merging sorts the
  // route without a sort.
  template <typename Fn>
  static void merge_route_runs(std::span<const int> path, std::size_t xhops, Fn&& fn) {
    struct Run {
      std::span<const int> ids;
      bool down;  // descending in path order: walk it from the back
      std::size_t i = 0;
      bool done() const { return i == ids.size(); }
      int front() const { return down ? ids[ids.size() - 1 - i] : ids[i]; }
    };
    const auto make = [](std::span<const int> ids) {
      return Run{ids, ids.size() > 1 && ids[0] > ids[1]};
    };
    Run a = make(path.first(xhops));
    Run b = make(path.subspan(xhops));
    while (!a.done() && !b.done()) {
      Run& lo = a.front() < b.front() ? a : b;
      fn(lo.front());
      ++lo.i;
    }
    for (; !a.done(); ++a.i) fn(a.front());
    for (; !b.done(); ++b.i) fn(b.front());
  }
  std::size_t x_hops(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(std::abs(src % cfg_.width - dst % cfg_.width));
  }

  // Meshes up to this many nodes precompute every pair's route once; send()
  // then reads spans out of the pools instead of allocating per message.
  static constexpr int kPathTableMaxNodes = 256;
  // Inline slots for the no-table fallback and for held guards: covers any
  // path in a mesh up to 17x17 without touching the heap.
  static constexpr std::size_t kInlinePathSlots = 32;

  void build_path_table();
  std::span<const int> table_span(const std::vector<int>& pool, NodeId src,
                                  NodeId dst) const {
    const std::size_t pair = static_cast<std::size_t>(src) * cfg_.node_count() + dst;
    return {pool.data() + pair_off_[pair], pair_off_[pair + 1] - pair_off_[pair]};
  }

  struct DegradedWindow {
    NodeId node;
    double factor;
    SimTime from;
    SimTime until;
  };
  double degrade_factor_now(NodeId src, NodeId dst, std::span<const int> path) const;

  sim::Simulation& sim_;
  MeshConfig cfg_;
  // One capacity-1 Resource per directed link, indexed by link id. The
  // shard arena keeps all 4*node_count link states in one contiguous
  // block — Resources are address-pinned (auditor registration), which
  // the arena's no-relocation contract supports.
  sim::ShardArena<sim::Resource> links_;
  std::vector<SimTime> link_busy_;
  std::vector<DegradedWindow> degraded_windows_;

  // Route table: link ids for every (src, dst) pair, in path order
  // (path_pool_) and ascending acquisition order (sorted_pool_), both
  // indexed by pair_off_. Empty when the mesh exceeds kPathTableMaxNodes.
  std::vector<int> path_pool_;
  std::vector<int> sorted_pool_;
  std::vector<std::uint32_t> pair_off_;

  std::uint64_t messages_ = 0;
  std::uint64_t segmented_messages_ = 0;
  std::uint64_t segments_sent_ = 0;
  ByteCount bytes_ = 0;
};

}  // namespace ppfs::hw
