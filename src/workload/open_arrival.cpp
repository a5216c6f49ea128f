#include "workload/open_arrival.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "sim/random.hpp"
#include "workload/rig.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

struct ClientOutcome {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t app_errors = 0;
  ByteCount bytes = 0;
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
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      if (is_write) {
        co_await client.write(
            fd, std::span<const std::byte>(scratch).subspan(0, spec.request_size));
      } else {
        out.bytes += co_await client.read(fd, scratch.subspan(0, spec.request_size));
      }
    } catch (const fault::FaultError&) {
      failed = true;
    }
    const SimTime done = sim.now();
    out.latencies.add(done - arrival);
    out.last_completion = std::max(out.last_completion, done);
    if (failed) {
      ++out.app_errors;
    } else {
      ++out.completed;
    }
  }
  if (spec.write_fraction > 0) co_await client.fsync(fd);
  client.close(fd);
}

}  // namespace

OpenArrivalResult run_open_arrival(const MachineSpec& machine, const OpenArrivalSpec& spec,
                                   trace::TraceSink* sink) {
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

  detail::Rig rig(machine, detail::Topology::kParagonScaled, N, sink);
  if (spec.prefetch) rig.attach_prefetchers(spec.prefetch_cfg);

  // --- populate tenant files with zeros (simulated time here is not
  // measured; reads never verify, so no pattern is needed) ---
  std::vector<Task<void>> loads;
  for (int t = 0; t < spec.tenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    rig.fs().create(name);
    // Spread loaders across clients so population parallelizes.
    loads.push_back(detail::populate(rig.client(t % N), name, 0, file_size));
  }
  rig.run_populate(std::move(loads), "open-arrival");
  rig.start_phase({});

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
    rig.sim().spawn(client_proc(spec, rig.client(r), "tenant" + std::to_string(tenant_of[i]),
                                file_blocks, rngs[i], std::span(scratch), outcomes[i]));
  }
  rig.sim().run();

  // --- collect ---
  OpenArrivalResult res;
  res.spec = spec;
  res.ncompute = machine.ncompute;
  res.nio = machine.nio;
  std::uint64_t app_errors = 0;
  SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (const auto& o : outcomes) {
    if (o.issued != spec.requests_per_client) {
      throw std::runtime_error("open-arrival: a client did not finish (deadlock?)");
    }
    res.issued += o.issued;
    res.completed += o.completed;
    app_errors += o.app_errors;
    res.total_bytes += o.bytes;
    res.backlogged += o.backlogged;
    res.backlog_time += o.backlog_time;
    res.latencies.merge(o.latencies);
    t0 = std::min(t0, o.first_arrival);
    t1 = std::max(t1, o.last_completion);
  }
  rig.collect(res, app_errors);
  res.sim_elapsed = t1 > t0 ? t1 - t0 : 0;
  res.wall_bw_mbs = sim::megabytes_per_second(res.total_bytes, res.sim_elapsed);
  return res;
}

}  // namespace ppfs::workload
