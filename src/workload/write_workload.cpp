#include "workload/write_workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "sim/event.hpp"
#include "workload/generator.hpp"
#include "workload/rig.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

// Per-writer pattern tags: record contents name their writer, so the
// conflicting read-back can prove a record is uniformly ONE writer's bytes
// (sequential consistency — never an interleaving of two writers).
constexpr std::uint64_t kCkptTagBase = 2000;
// Producer/consumer rounds are tag-stamped so a consumer that reads a stale
// (unflushed) round fails verification byte-for-byte.
constexpr std::uint64_t kStreamTagBase = 3000;

struct WriterOutcome {
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t writes = 0;
  ByteCount bytes_written = 0;
  std::uint64_t reads = 0;
  ByteCount bytes_read = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t app_errors = 0;
  sim::StreamingQuantiles write_latencies;
};

/// One checkpoint writer: write the round's record (own slot, or the shared
/// record when conflicting), optionally fsync, barrier, then cross-read the
/// next peer's record and verify every byte came from exactly one writer.
Task<void> checkpoint_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                           sim::Barrier& round_line, WriterOutcome& out, int c) {
  sim::Simulation& sim = client.machine().simulation();
  const int W = spec.writers;
  const int fd = co_await client.open("ckpt", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    const std::uint64_t rec =
        spec.conflicting ? r : r * static_cast<std::uint64_t>(W) + static_cast<std::uint64_t>(c);
    const FileOffset off = rec * spec.request_size;
    fill_pattern(kCkptTagBase + static_cast<std::uint64_t>(c), off, buf);
    const SimTime t0 = sim.now();
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      co_await client.write(fd, buf);
      if (spec.fsync_each_round) co_await client.fsync(fd);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    out.write_latencies.add(sim.now() - t0);
    ++out.writes;
    out.bytes_written += spec.request_size;
    if (failed) ++out.app_errors;

    // Everyone's round-r write (and fsync) has settled past this line.
    co_await round_line.arrive_and_wait();

    if (spec.verify) {
      const int peer = (c + 1) % W;
      const std::uint64_t prec =
          spec.conflicting
              ? r
              : r * static_cast<std::uint64_t>(W) + static_cast<std::uint64_t>(peer);
      const FileOffset poff = prec * spec.request_size;
      bool read_failed = false;
      ByteCount got = 0;
      try {
        co_await client.seek(fd, poff);
        got = co_await client.read(fd, buf);
      } catch (const fault::FaultError&) {
        read_failed = true;
      }
      ++out.reads;
      out.bytes_read += got;
      if (read_failed) {
        ++out.app_errors;
      } else {
        bool ok = got == spec.request_size;
        if (ok && spec.conflicting) {
          // The record must be uniformly ONE writer's bytes — any single
          // tag matching end-to-end proves no interleaving survived.
          ok = false;
          for (int w = 0; w < W && !ok; ++w) {
            ok = find_pattern_mismatch(kCkptTagBase + static_cast<std::uint64_t>(w), poff,
                                       std::span<const std::byte>(buf)) == kNoMismatch;
          }
        } else if (ok) {
          ok = find_pattern_mismatch(kCkptTagBase + static_cast<std::uint64_t>(peer), poff,
                                     std::span<const std::byte>(buf).subspan(0, got)) ==
               kNoMismatch;
        }
        if (!ok) ++out.verify_failures;
      }
    }
    out.end = sim.now();

    // Reads of round r finish before round r+1 may overwrite (conflicting
    // mode reuses offsets round-over-round).
    co_await round_line.arrive_and_wait();
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  // Leave nothing dirty behind: the final fsync also puts every record on
  // the servers for post-run audits.
  co_await client.fsync(fd);
  out.end = sim.now();
  client.close(fd);
}

/// Producer: writes the round's record and NEVER fsyncs — the data leaves
/// its write-back cache only through the consumers' revocations.
Task<void> producer_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                         sim::Barrier& round_line, WriterOutcome& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open("stream", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    const FileOffset off = r * spec.request_size;
    fill_pattern(kStreamTagBase + r, off, buf);
    const SimTime t0 = sim.now();
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      co_await client.write(fd, buf);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    out.write_latencies.add(sim.now() - t0);
    ++out.writes;
    out.bytes_written += spec.request_size;
    if (failed) ++out.app_errors;
    out.end = sim.now();

    co_await round_line.arrive_and_wait();  // record r produced
    co_await round_line.arrive_and_wait();  // record r consumed
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  co_await client.fsync(fd);
  out.end = sim.now();
  client.close(fd);
}

/// Consumer: after the produce barrier, reads the round's record. Its read-
/// token acquisition is what revokes the producer's write token and forces
/// the flush — byte-exact verification proves flush-before-ack coherence.
Task<void> consumer_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                         sim::Barrier& round_line, WriterOutcome& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open("stream", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    co_await round_line.arrive_and_wait();  // wait for record r
    const FileOffset off = r * spec.request_size;
    bool failed = false;
    ByteCount got = 0;
    try {
      co_await client.seek(fd, off);
      got = co_await client.read(fd, buf);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    ++out.reads;
    out.bytes_read += got;
    if (failed) {
      ++out.app_errors;
    } else if (spec.verify) {
      const bool ok = got == spec.request_size &&
                      find_pattern_mismatch(kStreamTagBase + r, off,
                                            std::span<const std::byte>(buf)) == kNoMismatch;
      if (!ok) ++out.verify_failures;
    }
    out.end = sim.now();
    co_await round_line.arrive_and_wait();  // record r consumed
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  client.close(fd);
}

ExperimentResult run_rounds(const WriteWorkloadSpec& spec, trace::TraceSink* sink) {
  const int W = spec.writers;
  if (W > spec.machine.ncompute) {
    throw std::invalid_argument("write-workload: writers exceed compute nodes");
  }
  if (spec.kind == WriteWorkloadKind::kProducerConsumer && W < 2) {
    throw std::invalid_argument("write-workload: producer-consumer needs >= 2 clients");
  }

  MachineSpec m = spec.machine;
  m.pfs.write_tokens = true;  // the whole point of these workloads
  detail::Rig rig(m, detail::Topology::kParagon, W, sink);
  rig.fs().create(spec.kind == WriteWorkloadKind::kCheckpoint ? "ckpt" : "stream");
  rig.start_phase(spec.faults);

  sim::Barrier round_line(rig.sim(), static_cast<std::size_t>(W));
  std::vector<WriterOutcome> outcomes(static_cast<std::size_t>(W));
  for (int c = 0; c < W; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (spec.kind == WriteWorkloadKind::kCheckpoint) {
      rig.sim().spawn(checkpoint_proc(spec, rig.client(c), round_line, outcomes[i], c));
    } else if (c == 0) {
      rig.sim().spawn(producer_proc(spec, rig.client(c), round_line, outcomes[i]));
    } else {
      rig.sim().spawn(consumer_proc(spec, rig.client(c), round_line, outcomes[i]));
    }
  }
  rig.sim().run();

  ExperimentResult res;
  res.spec.name = to_string(spec.kind);
  res.spec.mode = IoMode::kAsync;
  res.spec.request_size = spec.request_size;
  res.spec.compute_delay = spec.compute_delay;
  res.spec.verify = spec.verify;
  res.spec.faults = spec.faults;
  std::uint64_t app_errors = 0;
  SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (int c = 0; c < W; ++c) {
    const auto& o = outcomes[static_cast<std::size_t>(c)];
    const std::uint64_t expected =
        (spec.kind == WriteWorkloadKind::kCheckpoint || c == 0) ? spec.rounds : 0;
    if (o.writes != expected ||
        (spec.kind == WriteWorkloadKind::kProducerConsumer && c > 0 &&
         o.reads != spec.rounds)) {
      throw std::runtime_error("write-workload: client " + std::to_string(c) +
                               " did not finish its rounds (deadlock?)");
    }
    res.reads += o.reads;
    res.total_bytes += o.bytes_read;
    res.verify_failures += o.verify_failures;
    app_errors += o.app_errors;
    // perfbench's checkpoint_write reads its write-call latencies here.
    res.read_latencies.merge(o.write_latencies);
    t0 = std::min(t0, o.start);
    t1 = std::max(t1, o.end);
  }
  rig.collect(res, app_errors);
  res.wall_elapsed = t1 > t0 ? t1 - t0 : 0;
  res.wall_bw_mbs = sim::megabytes_per_second(res.bytes_written, res.wall_elapsed);
  return res;
}

ExperimentResult run_mixed(const WriteWorkloadSpec& spec, trace::TraceSink* sink) {
  if (!spec.faults.empty()) {
    throw std::invalid_argument("write-workload: mixed takes no fault plan");
  }
  MachineSpec m = spec.machine;
  m.pfs.write_tokens = true;
  OpenArrivalSpec oa;
  oa.tenants = spec.tenants;
  oa.requests_per_client = spec.requests_per_client;
  oa.request_size = spec.request_size;
  oa.seed = spec.seed;
  oa.write_fraction = spec.write_fraction;
  const OpenArrivalResult r = run_open_arrival(m, oa, sink);

  ExperimentResult res;
  static_cast<RunCounters&>(res) = r;
  res.spec.name = to_string(spec.kind);
  res.spec.mode = IoMode::kAsync;
  res.spec.request_size = spec.request_size;
  res.reads = r.completed - r.writes;
  res.total_bytes = r.total_bytes;
  res.wall_elapsed = r.sim_elapsed;
  res.wall_bw_mbs = r.wall_bw_mbs;
  res.read_latencies = r.latencies;
  return res;
}

}  // namespace

const char* to_string(WriteWorkloadKind k) noexcept {
  switch (k) {
    case WriteWorkloadKind::kCheckpoint: return "checkpoint";
    case WriteWorkloadKind::kProducerConsumer: return "producer-consumer";
    case WriteWorkloadKind::kMixed: return "mixed";
  }
  return "?";
}

ExperimentResult run_write_workload(const WriteWorkloadSpec& spec, trace::TraceSink* sink) {
  if (spec.request_size == 0) {
    throw std::invalid_argument("write-workload: zero request size");
  }
  if (spec.kind == WriteWorkloadKind::kMixed) return run_mixed(spec, sink);
  if (spec.rounds == 0) {
    throw std::invalid_argument("write-workload: zero rounds");
  }
  if (spec.writers < 1) {
    throw std::invalid_argument("write-workload: writers < 1");
  }
  return run_rounds(spec, sink);
}

}  // namespace ppfs::workload
