#include "workload/open_arrival.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "sim/frame_arena.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

/// Write `size` zero bytes into an existing PFS file in 1 MB chunks.
/// Open-arrival reads never verify contents, so the populate phase only
/// needs to allocate blocks and exercise the write path — no pattern fill.
Task<void> populate_zeros(pfs::PfsClient& loader, std::string name, ByteCount size) {
  const int fd = co_await loader.open(name, IoMode::kAsync);
  const ByteCount chunk = std::min<ByteCount>(size, 1024 * 1024);
  std::vector<std::byte> buf(chunk);
  for (ByteCount off = 0; off < size; off += chunk) {
    const ByteCount n = std::min<ByteCount>(chunk, size - off);
    co_await loader.write(fd, std::span<const std::byte>(buf).subspan(0, n));
  }
  loader.close(fd);
}

struct ClientOutcome {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t app_errors = 0;
  ByteCount bytes = 0;
  std::uint64_t writes_completed = 0;
  ByteCount bytes_written = 0;
  SimTime first_arrival = sim::kTimeInfinity;
  SimTime last_completion = 0;
  std::uint64_t backlogged = 0;
  SimTime backlog_time = 0;
  sim::StreamingQuantiles latencies;
};

/// One client: Poisson arrivals on an independent clock, FIFO service.
/// `arrival` advances by exponential gaps regardless of completions — when
/// the previous request is still in flight the new one is queued (counted
/// as backlog) and its latency is measured from *arrival*, not from
/// service start. That is the open-system latency a user would see.
Task<void> client_proc(const OpenArrivalSpec& spec, pfs::PfsClient& client,
                       std::string file, ByteCount file_blocks, sim::Rng rng,
                       std::span<std::byte> scratch, ClientOutcome& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open(file, IoMode::kAsync);

  // The arrival clock is anchored at the read-phase start (now, after the
  // populate phase advanced the simulation), not at t=0 — otherwise every
  // arrival would look late and backlog would measure the populate time.
  SimTime arrival = sim.now();
  for (std::uint64_t k = 0; k < spec.requests_per_client; ++k) {
    arrival += rng.exponential(spec.mean_interarrival);
    const FileOffset off =
        static_cast<FileOffset>(rng.uniform_int(0, file_blocks - 1)) * spec.request_size;
    const SimTime now = sim.now();
    if (now < arrival) {
      co_await sim.delay(arrival - now);
    } else {
      // The client was still busy when this request arrived: open-system
      // backlog. Service starts immediately; the lag is the queueing delay.
      ++out.backlogged;
      out.backlog_time += now - arrival;
    }
    ++out.issued;
    out.first_arrival = std::min(out.first_arrival, arrival);
    // Short-circuit keeps the read-only stream untouched: with
    // write_fraction == 0 no extra uniform01() draw happens, so existing
    // read-only digests are bit-identical.
    const bool is_write =
        spec.write_fraction > 0 && rng.uniform01() < spec.write_fraction;
    ByteCount got = 0;
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      if (is_write) {
        co_await client.write(
            fd, std::span<const std::byte>(scratch).subspan(0, spec.request_size));
        got = spec.request_size;
      } else {
        got = co_await client.read(fd, scratch.subspan(0, spec.request_size));
      }
    } catch (const fault::FaultError&) {
      failed = true;
    }
    const SimTime done = sim.now();
    out.latencies.add(done - arrival);
    out.last_completion = std::max(out.last_completion, done);
    if (failed) {
      ++out.app_errors;
    } else if (is_write) {
      ++out.completed;
      ++out.writes_completed;
      out.bytes_written += got;
    } else {
      ++out.completed;
      out.bytes += got;
    }
  }
  if (spec.write_fraction > 0) co_await client.fsync(fd);
  client.close(fd);
}

}  // namespace

OpenArrivalResult run_open_arrival(const MachineSpec& machine,
                                   const OpenArrivalSpec& spec) {
  if (spec.tenants < 1) throw std::invalid_argument("open-arrival: tenants < 1");
  if (spec.request_size == 0) throw std::invalid_argument("open-arrival: zero request size");
  if (spec.tenant_file_size < spec.request_size) {
    throw std::invalid_argument("open-arrival: tenant file smaller than one request");
  }
  if (!(spec.mean_interarrival > 0)) {
    throw std::invalid_argument("open-arrival: mean interarrival must be > 0");
  }
  const int N = machine.ncompute;
  const ByteCount file_blocks = spec.tenant_file_size / spec.request_size;
  const ByteCount file_size = file_blocks * spec.request_size;

  // The arena's high-water restarts here, so frame_arena_bytes is this
  // run's own peak, whatever ran on the thread before.
  const std::uint64_t arena_base = sim::FrameArena::local().reset_peak();
  sim::Simulation sim;
  hw::MachineConfig mcfg =
      hw::MachineConfig::paragon_scaled(machine.ncompute, machine.nio, machine.raid);
  mcfg.compute_cpu = machine.compute_cpu;
  mcfg.io_cpu = machine.io_cpu;
  mcfg.mesh.mtu = machine.mesh_mtu;
  hw::Machine hw(sim, mcfg);
  pfs::PfsFileSystem fs(hw, machine.pfs);

  for (int t = 0; t < spec.tenants; ++t) {
    fs.create("tenant" + std::to_string(t));
  }

  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
  clients.reserve(static_cast<std::size_t>(N));
  for (int r = 0; r < N; ++r) {
    clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, N));
  }
  std::vector<std::unique_ptr<prefetch::PrefetchEngine>> engines(
      static_cast<std::size_t>(N));
  if (spec.prefetch) {
    for (int r = 0; r < N; ++r) {
      engines[r] = prefetch::attach_prefetcher(*clients[r], spec.prefetch_cfg);
    }
  }

  // --- populate tenant files (simulated time here is not measured) ---
  {
    std::vector<Task<void>> loads;
    for (int t = 0; t < spec.tenants; ++t) {
      // Spread loaders across clients so population parallelizes.
      loads.push_back(populate_zeros(*clients[t % N], "tenant" + std::to_string(t),
                                     file_size));
    }
    bool done = false;
    // ppfs-lint: allow(ref-across-await) flag is a local; sim.run() below blocks until done
    sim.spawn([](sim::Simulation& s, std::vector<Task<void>> ts, bool& flag) -> Task<void> {
      co_await sim::when_all(s, std::move(ts));
      flag = true;
    }(sim, std::move(loads), done));
    sim.run();
    if (!done) throw std::runtime_error("open-arrival: population deadlocked");
  }

  // --- assign tenants and per-client random streams (serial, so the
  // assignment is identical however many workers run the surrounding
  // sweep) ---
  sim::Rng master(spec.seed);
  const auto cdf = sim::Rng::make_zipf_cdf(static_cast<std::size_t>(spec.tenants),
                                           spec.tenant_skew);
  std::vector<int> tenant_of(static_cast<std::size_t>(N));
  std::vector<sim::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(N));
  for (int r = 0; r < N; ++r) {
    // zipf() ranks from 1 (most popular); tenant files are 0-indexed.
    tenant_of[static_cast<std::size_t>(r)] = static_cast<int>(master.zipf(cdf)) - 1;
    rngs.push_back(master.split());
  }

  // One scratch buffer for every reader: contents are never inspected, and
  // N per-client buffers at production scale would dwarf the kernel state
  // this workload exists to measure.
  std::vector<std::byte> scratch(spec.request_size);

  // --- open-arrival read phase ---
  std::vector<ClientOutcome> outcomes(static_cast<std::size_t>(N));
  for (int r = 0; r < N; ++r) {
    const auto i = static_cast<std::size_t>(r);
    sim.spawn(client_proc(spec, *clients[i], "tenant" + std::to_string(tenant_of[i]),
                          file_blocks, rngs[i], std::span(scratch), outcomes[i]));
  }
  sim.run();

  // --- collect ---
  OpenArrivalResult res;
  res.spec = spec;
  res.ncompute = machine.ncompute;
  res.nio = machine.nio;
  SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (const auto& o : outcomes) {
    if (o.issued != spec.requests_per_client) {
      throw std::runtime_error("open-arrival: a client did not finish (deadlock?)");
    }
    res.issued += o.issued;
    res.completed += o.completed;
    res.app_errors += o.app_errors;
    res.total_bytes += o.bytes;
    res.writes_completed += o.writes_completed;
    res.bytes_written += o.bytes_written;
    res.backlogged += o.backlogged;
    res.backlog_time += o.backlog_time;
    res.latencies.merge(o.latencies);
    t0 = std::min(t0, o.first_arrival);
    t1 = std::max(t1, o.last_completion);
  }
  for (const auto& c : clients) {
    res.token_rpcs += c->rpc_stats().token_rpcs;
    const auto& ts = c->token_stats();
    res.token_local_grants += ts.local_grants;
    res.token_revocations += ts.revocations;
    res.token_invalidations += ts.invalidations;
    res.wb_writes += ts.wb_writes;
    res.wb_read_hits += ts.wb_read_hits;
    res.wb_flush_ops += ts.flush_ops;
    res.wb_flushed_bytes += ts.flushed_bytes;
    res.wb_revocation_flushes += ts.revocation_flushes;
    res.wb_fsync_flushes += ts.fsync_flushes;
    res.wb_capacity_evictions += ts.capacity_evictions;
    res.wb_peak_dirty_bytes = std::max(res.wb_peak_dirty_bytes, ts.peak_dirty_bytes);
  }
  res.token_grants = fs.tokens().stats().grants;
  res.token_splits = fs.tokens().stats().splits;
  if (auto* a = sim.auditor()) {
    a->check_token_conservation(sim.now(), fs.tokens().write_granted_bytes());
  }
  res.sim_elapsed = t1 > t0 ? t1 - t0 : 0;
  res.wall_bw_mbs = sim::megabytes_per_second(res.total_bytes, res.sim_elapsed);
  res.digest = sim.digest();
  res.events_dispatched = sim.events_dispatched();
  res.peak_pending_events = sim.peak_pending_events();
  res.event_queue_bytes = sim.event_queue_bytes();
  res.frame_arena_bytes = sim::FrameArena::local().stats().peak_live_bytes - arena_base;
  res.machine_state_bytes = hw.state_memory_bytes();
  res.bytes_per_event =
      res.events_dispatched
          ? static_cast<double>(res.event_queue_bytes + res.frame_arena_bytes) /
                static_cast<double>(res.events_dispatched)
          : 0.0;
  return res;
}

}  // namespace ppfs::workload
