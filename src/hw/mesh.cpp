#include "hw/mesh.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/inline_vec.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace ppfs::hw {

namespace {

// Wire-occupancy span edges for every link of a held route. The links are
// held exclusively (capacity-1 resources), so per-link begin/end pairs can
// never overlap and export as plain B/E timeline slices.
void trace_wire_edges(sim::Simulation& sim, std::span<const int> links, trace::TraceKind kind,
                     ByteCount bytes, NodeId dst) {
  trace::TraceSink* sink = sim.trace();
  if (sink == nullptr) return;
  for (int id : links) {
    sink->record(trace::TraceRecord(sim.now(), kind, trace::TraceTrack::kMeshLink,
                                    trace::code::kWire, id, 0,
                                    static_cast<std::uint64_t>(bytes),
                                    static_cast<std::uint64_t>(dst)));
  }
}

}  // namespace

MeshNetwork::MeshNetwork(sim::Simulation& s, MeshConfig cfg) : sim_(s), cfg_(cfg) {
  if (cfg_.width <= 0 || cfg_.height <= 0) {
    throw std::invalid_argument("MeshNetwork: non-positive dimensions");
  }
  const int n_links = cfg_.node_count() * 4;
  links_.reserve(static_cast<std::size_t>(n_links));
  for (int i = 0; i < n_links; ++i) links_.emplace_back(s, 1);
  link_busy_.assign(n_links, 0.0);
  build_path_table();
}

void MeshNetwork::check_node(NodeId n) const {
  if (n < 0 || n >= cfg_.node_count()) {
    throw std::out_of_range("MeshNetwork: node id out of range");
  }
}

void MeshNetwork::build_path_table() {
  const int n = cfg_.node_count();
  if (n > kPathTableMaxNodes) return;  // fall back to per-send walks
  const std::size_t pairs = static_cast<std::size_t>(n) * n;
  pair_off_.assign(pairs + 1, 0);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      pair_off_[static_cast<std::size_t>(s) * n + d + 1] =
          static_cast<std::uint32_t>(hop_count(s, d));
    }
  }
  for (std::size_t i = 1; i < pair_off_.size(); ++i) pair_off_[i] += pair_off_[i - 1];
  path_pool_.resize(pair_off_.back());
  sorted_pool_.resize(pair_off_.back());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      const std::size_t begin = pair_off_[static_cast<std::size_t>(s) * n + d];
      std::size_t at = begin;
      walk_route(s, d, [&](int id) { path_pool_[at++] = id; });
      const std::span<const int> path(path_pool_.data() + begin, at - begin);
      std::size_t out = begin;
      merge_route_runs(path, x_hops(s, d), [&](int id) { sorted_pool_[out++] = id; });
    }
  }
}

std::vector<int> MeshNetwork::route(NodeId src, NodeId dst) const {
  check_node(src);
  check_node(dst);
  std::vector<int> path;
  path.reserve(static_cast<std::size_t>(hop_count(src, dst)));
  walk_route(src, dst, [&](int id) { path.push_back(id); });
  return path;
}

std::vector<int> MeshNetwork::acquisition_order(NodeId src, NodeId dst) const {
  const std::vector<int> path = route(src, dst);
  std::vector<int> order;
  order.reserve(path.size());
  merge_route_runs(path, x_hops(src, dst), [&](int id) { order.push_back(id); });
  return order;
}

int MeshNetwork::hop_count(NodeId src, NodeId dst) const {
  const int sx = src % cfg_.width, sy = src / cfg_.width;
  const int dx = dst % cfg_.width, dy = dst / cfg_.width;
  return std::abs(sx - dx) + std::abs(sy - dy);
}

void MeshNetwork::inject_node_slowdown(NodeId node, double factor, SimTime from,
                                       SimTime until) {
  check_node(node);
  if (factor <= 0) {
    throw std::invalid_argument("MeshNetwork::inject_node_slowdown: factor must be > 0");
  }
  degraded_windows_.push_back(DegradedWindow{node, factor, from, until});
}

double MeshNetwork::degrade_factor_now(NodeId src, NodeId dst,
                                       std::span<const int> path) const {
  if (degraded_windows_.empty()) return 1.0;
  double f = 1.0;
  const SimTime now = sim_.now();
  for (const DegradedWindow& w : degraded_windows_) {
    if (now < w.from || now >= w.until) continue;
    bool touches = src == w.node || dst == w.node;
    for (std::size_t i = 0; !touches && i < path.size(); ++i) {
      touches = path[i] / 4 == w.node;  // link_id encodes its source node
    }
    if (touches) f *= w.factor;
  }
  return f;
}

std::vector<std::pair<int, SimTime>> MeshNetwork::top_busy_links(std::size_t k) const {
  std::vector<std::pair<int, SimTime>> busy;
  for (std::size_t id = 0; id < link_busy_.size(); ++id) {
    if (link_busy_[id] > 0.0) busy.emplace_back(static_cast<int>(id), link_busy_[id]);
  }
  std::sort(busy.begin(), busy.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (busy.size() > k) busy.resize(k);
  return busy;
}

sim::Task<void> MeshNetwork::send(NodeId src, NodeId dst, ByteCount bytes) {
  check_node(src);
  check_node(dst);

  // Software injection cost is paid on the node, before touching the wires.
  co_await sim_.delay(cfg_.software_latency);

  if (src == dst) {
    ++messages_;
    bytes_ += bytes;
    co_return;
  }

  // Route lookup: spans into the precomputed pools for table-sized meshes,
  // inline scratch otherwise — no heap traffic either way for paper-scale
  // grids.
  // ppfs::hot — per-message route lookup; pool spans or inline scratch only
  sim::InlineVec<int, kInlinePathSlots> local_path;
  sim::InlineVec<int, kInlinePathSlots> local_sorted;
  std::span<const int> path, ordered;
  if (!pair_off_.empty()) {
    path = table_span(path_pool_, src, dst);
    ordered = table_span(sorted_pool_, src, dst);
  } else {
    walk_route(src, dst, [&](int id) { local_path.push_back(id); });
    path = {local_path.data(), local_path.size()};
    // A named local on purpose: it keeps this frame in its FrameArena size
    // class, which the AllocPerEvent pins count (EXPERIMENTS.md, "Host
    // cost of the event queue").
    const std::size_t xhops = x_hops(src, dst);
    merge_route_runs(path, xhops, [&](int id) { local_sorted.push_back(id); });
    ordered = {local_sorted.data(), local_sorted.size()};
  }
  // ppfs::endhot

  // The message moves as nseg segments: one (the circuit, which holds the
  // whole route for the whole message) when the MTU is 0 or the message
  // fits in it, zero-byte messages included; ceil(bytes / mtu) otherwise.
  // Each segment takes the full route in canonical (ascending) order, which
  // is deadlock-free, but the route is yielded between segments when, and
  // only when, another message is queued on one of its links. So
  // uncontended traffic pays a single acquisition (O(path + segments)
  // work) while contended routes interleave at MTU granularity.
  const bool one = cfg_.mtu == 0 || bytes <= cfg_.mtu;
  const std::uint64_t nseg = one ? 1 : (bytes + cfg_.mtu - 1) / cfg_.mtu;
  const ByteCount unit = one ? bytes : cfg_.mtu;
  if (nseg > 1) {
    ++segmented_messages_;
    segments_sent_ += nseg;
  }

  sim::InlineVec<sim::ResourceGuard, kInlinePathSlots> held;
  for (std::uint64_t s = 0; s < nseg; ++s) {
    const ByteCount seg = std::min<ByteCount>(unit, bytes - s * unit);
    if (held.empty()) {
      for (int id : ordered) held.push_back(co_await links_[static_cast<std::size_t>(id)].acquire());
    }

    // The head segment pays the per-hop router latency; later segments
    // stream pipeline-style behind it and pay pure wire time.
    double transfer = static_cast<double>(seg) / cfg_.link_bandwidth;
    if (s == 0) transfer += static_cast<double>(path.size()) * cfg_.hop_latency;

    // Degradation is evaluated at wire time, after the links are held, so
    // a window that opens while a message waits for them still applies,
    // and one opening mid-message slows exactly the segments wired inside
    // it.
    transfer *= degrade_factor_now(src, dst, path);

    trace_wire_edges(sim_, ordered, trace::TraceKind::kSpanBegin, seg, dst);
    co_await sim_.delay(transfer);
    trace_wire_edges(sim_, ordered, trace::TraceKind::kSpanEnd, seg, dst);
    for (int id : ordered) link_busy_[id] += transfer;

    if (s + 1 < nseg) {
      bool contended = false;
      for (int id : ordered) {
        if (links_[static_cast<std::size_t>(id)].queue_length() > 0) {
          contended = true;
          break;
        }
      }
      if (contended) {
        if (trace::TraceSink* sink = sim_.trace()) {
          // One queuing instant per yielded link: a contended route dropped
          // between segments so another message can interleave.
          for (int id : ordered) {
            sink->record(trace::TraceRecord(sim_.now(), trace::TraceKind::kInstant,
                                            trace::TraceTrack::kMeshLink,
                                            trace::code::kSegmentYield, id, 0, s + 1, nseg));
          }
        }
        held.clear();  // release in insertion order, re-acquire
      }
    }
  }

  ++messages_;
  bytes_ += bytes;
}

}  // namespace ppfs::hw
