// Per-layer metric catalogue and the standalone layer loops: each times one
// layer's public call on a fresh simulation, outside any driver, so its host
// cost per call can be set against the driver call's work counts.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "hw/mesh.hpp"
#include "hw/raid.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using ppfs::sim::Simulation;
using ppfs::sim::Task;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

const std::vector<LayerMetric> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.peak_pending", "count"},
    {"sim.bytes_per_event", "B"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.bare_ns_per_event", "ns"},
    {"mesh.busy_s", "s"},
    {"mesh.util_peak", "frac"},
    {"mesh.top_link_busy_s", "s"},
    {"mesh.host_ns_per_send", "ns"},
    {"disk.ops", "count"},
    {"disk.busy_s", "s"},
    {"disk.util_avg", "frac"},
    {"disk.host_ns_per_transfer", "ns"},
    {"ufs.disk_runs", "count"},
    {"ufs.coalesced_blocks", "count"},
    {"ufs.fastpath_reads", "count"},
    {"rpc.data.count", "count"},
    {"rpc.data.p50_ms", "ms"},
    {"rpc.data.p99_ms", "ms"},
    {"rpc.metadata.count", "count"},
    {"rpc.pointer.count", "count"},
    {"rpc.retries", "count"},
    {"token.rpcs", "count"},
    {"token.revocations", "count"},
    {"rpc.token.p99_ms", "ms"},
    {"wb.flush_ops", "count"},
    {"wb.flushed_mb", "MB"},
    {"wb.peak_dirty_mb", "MB"},
    {"prefetch.issued", "count"},
    {"prefetch.hit_ratio", "frac"},
    {"prefetch.useful_ratio", "frac"},
    {"prefetch.wait_s", "s"},
    {"prefetch.occupancy_avg", "buffers"},
    {"pattern.bytes", "B"},
    {"pattern.fill_ns_per_byte", "ns/B"},
    {"pattern.verify_ns_per_byte", "ns/B"},
    {"trace.records", "count"},
    {"trace.overhead_frac", "frac"},
    {"host.unattributed_frac", "frac"},
    {"load.backlog_frac", "frac"},
};

double fastest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

namespace {

// Timed repetitions per loop, after one untimed warm-up; the fastest counts.
constexpr int kReps = 5;

Task<void> hop(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

Task<void> sender(hw::MeshNetwork& mesh, int src, std::vector<int> dsts,
                  sim::ByteCount bytes, int sends, std::uint64_t* done) {
  for (int i = 0; i < sends; ++i) {
    co_await mesh.send(src, dsts[static_cast<std::size_t>(i) % dsts.size()], bytes);
    ++*done;
  }
}

Task<void> streamer(hw::RaidArray& raid, std::uint64_t lba, std::uint64_t sectors,
                    sim::ByteCount bytes, bool write, int transfers, std::uint64_t* done) {
  for (int i = 0; i < transfers; ++i) {
    co_await raid.transfer(lba, bytes, write);
    lba += sectors;
    ++*done;
  }
}

}  // namespace

double kernel_ns_per_event() {
  constexpr int kCallbacks = 400000;
  std::vector<double> ns;
  for (int r = 0; r <= kReps; ++r) {
    const double t0 = now_s();
    Simulation s;
    int fired = 0;
    for (int i = 0; i < kCallbacks; ++i) {
      s.call_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    for (int p = 0; p < 100; ++p) s.spawn(hop(s, 4000));
    s.run();
    const double dt = now_s() - t0;
    if (fired != kCallbacks) throw std::runtime_error("kernel loop dropped callbacks");
    if (r > 0) ns.push_back(dt * 1e9 / static_cast<double>(s.events_dispatched()));
  }
  return fastest(ns);
}

CallCost mesh_send_cost(const LayerShape& shape) {
  constexpr int kSends = 40000;
  const int per_sender =
      std::max<int>(1, kSends / static_cast<int>(shape.senders.size()));
  std::vector<double> ns;
  double events_per_send = 0;
  for (int r = 0; r <= kReps; ++r) {
    const double t0 = now_s();
    Simulation s;
    hw::MeshNetwork mesh(s, shape.mesh);
    std::uint64_t sent = 0;
    for (std::size_t i = 0; i < shape.senders.size(); ++i) {
      // Each sender walks the I/O nodes from its own offset, as striped
      // requests do.
      std::vector<int> dsts(shape.receivers);
      std::rotate(dsts.begin(), dsts.begin() + static_cast<std::ptrdiff_t>(i % dsts.size()),
                  dsts.end());
      s.spawn(sender(mesh, shape.senders[i], std::move(dsts), shape.send_bytes, per_sender,
                     &sent));
    }
    s.run();
    const double dt = now_s() - t0;
    if (sent != static_cast<std::uint64_t>(per_sender) * shape.senders.size()) {
      throw std::runtime_error("mesh loop lost messages");
    }
    events_per_send = static_cast<double>(s.events_dispatched()) / static_cast<double>(sent);
    if (r > 0) ns.push_back(dt * 1e9 / static_cast<double>(sent));
  }
  return {fastest(ns), events_per_send};
}

CallCost raid_transfer_cost(const LayerShape& shape) {
  constexpr int kStreams = 4;
  constexpr int kPerStream = 2500;
  std::vector<double> ns;
  double events_per_transfer = 0;
  for (int r = 0; r <= kReps; ++r) {
    const double t0 = now_s();
    Simulation s;
    hw::RaidArray raid(s, "bench", shape.raid);
    const std::uint64_t sectors = std::max<std::uint64_t>(
        1, (shape.transfer_bytes + raid.stripe_sector_bytes() - 1) / raid.stripe_sector_bytes());
    const std::uint64_t region = raid.total_sectors() / kStreams;
    std::uint64_t moved = 0;
    for (int k = 0; k < kStreams; ++k) {
      s.spawn(streamer(raid, region * static_cast<std::uint64_t>(k), sectors,
                       shape.transfer_bytes, shape.transfer_writes, kPerStream, &moved));
    }
    s.run();
    const double dt = now_s() - t0;
    if (moved != static_cast<std::uint64_t>(kStreams) * kPerStream) {
      throw std::runtime_error("raid loop lost transfers");
    }
    events_per_transfer = static_cast<double>(s.events_dispatched()) / static_cast<double>(moved);
    if (r > 0) ns.push_back(dt * 1e9 / static_cast<double>(moved));
  }
  return {fastest(ns), events_per_transfer};
}

namespace {

constexpr std::size_t kPatternChunk = 1 << 20;
constexpr int kPatternChunks = 48;

}  // namespace

double fill_ns_per_byte() {
  std::vector<std::byte> buf(kPatternChunk);
  std::vector<double> ns;
  for (int r = 0; r <= kReps; ++r) {
    const double t0 = now_s();
    for (int c = 0; c < kPatternChunks; ++c) {
      ppfs::workload::fill_pattern(7, static_cast<std::uint64_t>(c) * kPatternChunk, buf);
    }
    const double dt = now_s() - t0;
    if (r > 0) ns.push_back(dt * 1e9 / (static_cast<double>(kPatternChunk) * kPatternChunks));
  }
  // The last chunk must read back clean, or the fill was optimised away.
  if (ppfs::workload::find_pattern_mismatch(
          7, static_cast<std::uint64_t>(kPatternChunks - 1) * kPatternChunk,
          std::span<const std::byte>(buf)) != ppfs::workload::kNoMismatch) {
    throw std::runtime_error("pattern fill produced the wrong bytes");
  }
  return fastest(ns);
}

double verify_ns_per_byte() {
  std::vector<std::byte> buf(kPatternChunk);
  ppfs::workload::fill_pattern(7, 0, buf);
  std::vector<double> ns;
  for (int r = 0; r <= kReps; ++r) {
    std::size_t clean = 0;
    const double t0 = now_s();
    for (int c = 0; c < kPatternChunks; ++c) {
      clean += ppfs::workload::find_pattern_mismatch(7, 0, std::span<const std::byte>(buf)) ==
               ppfs::workload::kNoMismatch;
    }
    const double dt = now_s() - t0;
    if (clean != kPatternChunks) throw std::runtime_error("pattern verify misread");
    if (r > 0) ns.push_back(dt * 1e9 / (static_cast<double>(kPatternChunk) * kPatternChunks));
  }
  return fastest(ns);
}

}  // namespace perfbench
