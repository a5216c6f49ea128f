#include "workload/experiment.hpp"

#include <algorithm>
#include <numeric>
#include <memory>
#include <stdexcept>
#include <string>

#include "fault/error.hpp"
#include "fault/injector.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "sim/check/audit.hpp"
#include "sim/event.hpp"
#include "sim/frame_arena.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

constexpr std::uint64_t kSharedTag = 1;
constexpr std::uint64_t kSeparateTagBase = 100;

/// Write `size` patterned bytes into an existing PFS file through the full
/// stack (fast-path writes in 1 MB chunks). `name` is taken by value: the
/// returned Task is stored and awaited later, so reference parameters to
/// caller temporaries would dangle.
Task<void> populate(pfs::PfsClient& loader, std::string name, std::uint64_t tag,
                    ByteCount size) {
  const int fd = co_await loader.open(name, IoMode::kAsync);
  const ByteCount chunk = std::min<ByteCount>(size, 1024 * 1024);
  std::vector<std::byte> buf(chunk);
  for (ByteCount off = 0; off < size; off += chunk) {
    const ByteCount n = std::min<ByteCount>(chunk, size - off);
    fill_pattern(tag, off, std::span(buf).subspan(0, n));
    co_await loader.write(fd, std::span<const std::byte>(buf).subspan(0, n));
  }
  loader.close(fd);
}

struct NodePlan {
  std::string file;
  std::uint64_t tag = kSharedTag;
  std::uint64_t reads = 0;
  ByteCount own_region_start = 0;  // seek target for unique-pointer modes
  bool seek_first = false;
  bool interleave_seeks = false;   // seek to (k*N + rank)*req before read k
  bool strided_seeks = false;      // seek to strided_offset(k) before read k
  bool listio_seeks = false;       // seek to listio_offset(k) before read k
};

struct NodeOutcome {
  SimTime start = 0;
  SimTime end = 0;
  ByteCount bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t app_errors = 0;  // FaultErrors surfaced to the application
  sim::StreamingQuantiles latencies;  // per read call, fixed footprint
};

/// Expected file offset of read k for verification purposes.
FileOffset expected_offset(const WorkloadSpec& w, const NodePlan& plan, int rank, int nprocs,
                           std::uint64_t k, FileOffset observed_ptr_after,
                           ByteCount got) {
  switch (w.mode) {
    case IoMode::kRecord:
      return (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size;
    case IoMode::kUnix:
    case IoMode::kAsync:
      if (plan.interleave_seeks) {
        return (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size;
      }
      if (plan.strided_seeks) return strided_offset(w, rank, nprocs, k);
      if (plan.listio_seeks) return listio_offset(w, rank, nprocs, k);
      return plan.own_region_start + k * w.request_size;
    case IoMode::kGlobal:
      return k * w.request_size;
    case IoMode::kLog:
    case IoMode::kSync:
      // The claimed region is only known after the fact: the client's
      // pointer lands at claim_end.
      return observed_ptr_after - got;
  }
  throw std::logic_error("expected_offset: unknown mode");
}

Task<void> reader(const WorkloadSpec& w, pfs::PfsClient& client, NodePlan plan,
                  sim::Barrier& start_line, NodeOutcome& out, int rank, int nprocs) {
  const int fd = co_await client.open(plan.file, w.separate_files ? IoMode::kAsync : w.mode);
  if (!w.use_fastpath) client.set_fastpath(fd, false);
  if (plan.seek_first && plan.own_region_start != 0) {
    co_await client.seek(fd, plan.own_region_start);
  }
  co_await start_line.arrive_and_wait();
  out.start = client.machine().simulation().now();

  std::vector<std::byte> buf(w.request_size);
  for (std::uint64_t k = 0; k < plan.reads; ++k) {
    if (plan.interleave_seeks) {
      co_await client.seek(
          fd, (k * static_cast<FileOffset>(nprocs) + rank) * w.request_size);
    } else if (plan.strided_seeks) {
      co_await client.seek(fd, strided_offset(w, rank, nprocs, k));
    } else if (plan.listio_seeks) {
      co_await client.seek(fd, listio_offset(w, rank, nprocs, k));
    }
    const SimTime call_start = client.machine().simulation().now();
    ByteCount got = 0;
    bool read_failed = false;
    try {
      got = co_await client.read(fd, buf);
    } catch (const fault::FaultError&) {
      // A terminal fault (retry budget exhausted) surfaces to the
      // application as a failed read; the run carries on with the next
      // request, like a real program retrying at its own level would.
      read_failed = true;
    }
    out.latencies.add(client.machine().simulation().now() - call_start);
    out.bytes += got;
    ++out.reads;
    if (read_failed) ++out.app_errors;
    if (!read_failed && w.verify && got > 0) {
      const FileOffset off =
          expected_offset(w, plan, rank, nprocs, k, client.tell(fd), got);
      if (find_pattern_mismatch(plan.tag, off,
                                std::span<const std::byte>(buf).subspan(0, got)) !=
          kNoMismatch) {
        ++out.verify_failures;
      }
    }
    out.end = client.machine().simulation().now();
    if (w.compute_delay > 0 && k + 1 < plan.reads) {
      co_await client.machine().simulation().delay(w.compute_delay);
    }
  }
  client.close(fd);
}

}  // namespace

void accumulate_token_stats(ExperimentResult& res, const pfs::PfsClient& client) {
  res.writes += client.stats().writes;
  res.bytes_written += client.stats().bytes_written;
  res.max_node_write_time = std::max(res.max_node_write_time, client.stats().write_time);
  res.token_rpcs += client.rpc_stats().token_rpcs;
  const auto& ts = client.token_stats();
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

ExperimentResult Experiment::run(const WorkloadSpec& w, trace::TraceSink* sink,
                                 const PostRunHook& post_run) const {
  if (w.request_size == 0) throw std::invalid_argument("Experiment: zero request size");
  if ((w.pattern == AccessPattern::kStrided || w.pattern == AccessPattern::kListIo) &&
      (w.separate_files || (w.mode != IoMode::kUnix && w.mode != IoMode::kAsync))) {
    throw std::invalid_argument(
        "Experiment: strided/listio patterns need M_UNIX or M_ASYNC on a shared file");
  }
  const int N = spec_.ncompute;

  // The arena's high-water restarts here, so frame_arena_bytes is this
  // run's own peak, whatever ran on the thread before.
  const std::uint64_t arena_base = sim::FrameArena::local().reset_peak();
  sim::Simulation sim;
  sim.set_trace_sink(sink);
  hw::MachineConfig mcfg = hw::MachineConfig::paragon(spec_.ncompute, spec_.nio, spec_.raid);
  mcfg.compute_cpu = spec_.compute_cpu;
  mcfg.io_cpu = spec_.io_cpu;
  mcfg.mesh.mtu = spec_.mesh_mtu;
  hw::Machine machine(sim, mcfg);
  pfs::PfsFileSystem fs(machine, spec_.pfs);
  const pfs::StripeAttrs attrs = w.attrs.value_or(fs.default_attrs());

  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
  clients.reserve(N);
  for (int r = 0; r < N; ++r) {
    clients.push_back(std::make_unique<pfs::PfsClient>(fs, r, r, N));
  }
  std::vector<std::unique_ptr<prefetch::PrefetchEngine>> engines(N);
  if (w.prefetch) {
    for (int r = 0; r < N; ++r) {
      engines[r] = prefetch::attach_prefetcher(*clients[r], w.prefetch_cfg);
    }
  }

  // --- plan the per-node work ---
  std::vector<NodePlan> plans(N);
  if (w.separate_files) {
    const ByteCount per_node = w.file_size / N;
    for (int r = 0; r < N; ++r) {
      plans[r].file = "sep" + std::to_string(r);
      plans[r].tag = kSeparateTagBase + r;
      plans[r].reads = per_node / w.request_size;
      // Stagger each file's first stripe placement (rotate the group), as
      // a real mount does — otherwise N lockstep readers all land on group
      // slot 0 simultaneously, which no production placement policy allows.
      pfs::StripeAttrs rotated = attrs;
      const int g = rotated.group_size();
      std::rotate(rotated.stripe_group.begin(),
                  rotated.stripe_group.begin() + (r % g), rotated.stripe_group.end());
      fs.create(plans[r].file, rotated);
    }
  } else {
    fs.create("shared", attrs);
    for (int r = 0; r < N; ++r) {
      plans[r].file = "shared";
      switch (w.mode) {
        case IoMode::kRecord:
          plans[r].reads = w.file_size / (w.request_size * static_cast<ByteCount>(N));
          break;
        case IoMode::kGlobal:
          plans[r].reads = w.file_size / w.request_size;
          break;
        case IoMode::kUnix:
        case IoMode::kAsync: {
          switch (w.pattern) {
            case AccessPattern::kInterleaved:
              plans[r].reads = w.file_size / (w.request_size * static_cast<ByteCount>(N));
              plans[r].interleave_seeks = true;
              break;
            case AccessPattern::kOwnRegion: {
              const ByteCount share = w.file_size / N;
              plans[r].reads = share / w.request_size;
              plans[r].own_region_start = static_cast<ByteCount>(r) * share;
              plans[r].seek_first = true;
              break;
            }
            case AccessPattern::kStrided:
              if (w.stride < 1) {
                throw std::invalid_argument("Experiment: stride must be >= 1");
              }
              plans[r].reads = strided_reads_per_node(w, N);
              plans[r].strided_seeks = true;
              break;
            case AccessPattern::kListIo:
              if (w.listio_extents < 1 ||
                  w.listio_extents >
                      static_cast<int>(prefetch::ListIoPredictor::kMaxPeriod)) {
                throw std::invalid_argument(
                    "Experiment: listio extents must be in [1, 8]");
              }
              plans[r].reads = listio_reads_per_node(w, N);
              plans[r].listio_seeks = true;
              break;
          }
          break;
        }
        case IoMode::kLog:
        case IoMode::kSync:
          plans[r].reads = (w.file_size / N) / w.request_size;
          break;
      }
    }
  }
  for (const auto& p : plans) {
    if (p.reads == 0) {
      throw std::invalid_argument("Experiment: file too small for one request per node");
    }
  }

  // --- populate (simulated time spent here is not measured) ---
  {
    std::vector<Task<void>> loads;
    if (w.separate_files) {
      for (int r = 0; r < N; ++r) {
        loads.push_back(populate(*clients[r], plans[r].file, plans[r].tag, w.file_size / N));
      }
    } else {
      loads.push_back(populate(*clients[0], "shared", kSharedTag, w.file_size));
    }
    bool done = false;
    // ppfs-lint: allow(ref-across-await) flag is a local; sim.run() below blocks until done
    sim.spawn([](sim::Simulation& s, std::vector<Task<void>> ts, bool& flag) -> Task<void> {
      co_await sim::when_all(s, std::move(ts));
      flag = true;
    }(sim, std::move(loads), done));
    sim.run();
    if (!done) throw std::runtime_error("Experiment: population deadlocked");
  }

  // Snapshot client stats so only the read phase is measured.
  std::vector<sim::SimTime> read_time_base(N);
  std::vector<ByteCount> staged_base(N);
  for (int r = 0; r < N; ++r) {
    read_time_base[r] = clients[r]->stats().read_time;
    staged_base[r] = clients[r]->rpc_stats().staged_bytes;
  }

  // --- arm the fault plan (event times relative to the read-phase start) ---
  fault::FaultInjector injector(machine, fs);
  if (!w.faults.empty()) {
    injector.arm(w.faults, sim.now());
  }

  // --- read phase ---
  sim::Barrier start_line(sim, N);
  std::vector<NodeOutcome> outcomes(N);
  for (int r = 0; r < N; ++r) {
    sim.spawn(reader(w, *clients[r], plans[r], start_line, outcomes[r], r, N));
  }
  sim.run();

  // --- collect ---
  ExperimentResult res;
  res.spec = w;
  SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (int r = 0; r < N; ++r) {
    if (outcomes[r].reads != plans[r].reads) {
      throw std::runtime_error("Experiment: node " + std::to_string(r) +
                               " did not finish its reads (deadlock?)");
    }
    res.total_bytes += outcomes[r].bytes;
    res.reads += outcomes[r].reads;
    res.verify_failures += outcomes[r].verify_failures;
    res.faults.app_errors += outcomes[r].app_errors;
    t0 = std::min(t0, outcomes[r].start);
    t1 = std::max(t1, outcomes[r].end);
    res.read_latencies.merge(outcomes[r].latencies);
    const SimTime rt = clients[r]->stats().read_time - read_time_base[r];
    res.node_read_time.push_back(rt);
    res.max_node_read_time = std::max(res.max_node_read_time, rt);
    if (engines[r]) {
      const auto& st = engines[r]->stats();
      res.prefetch.merge(st);
      res.faults.shed_prefetches += st.shed;
      res.faults.stale_epoch_discards += st.epoch_discarded;
    }
    const auto& rpc = clients[r]->rpc_stats();
    res.data_rpcs += rpc.data_rpcs;
    res.metadata_rpcs += rpc.metadata_rpcs;
    res.pointer_rpcs += rpc.pointer_rpcs;
    res.coalesced_rpcs += rpc.coalesced_rpcs;
    res.coalesced_extents += rpc.coalesced_extents;
    res.stripe_map_refreshes += rpc.stripe_map_refreshes;
    res.staged_bytes += rpc.staged_bytes - staged_base[r];
    res.faults.rpc_retries += rpc.retries;
    res.faults.rpc_down_waits += rpc.down_waits;
    res.faults.rpc_timeouts += rpc.timeouts;
    res.faults.terminal_errors += rpc.terminal_errors;
    res.faults.backoff_time += rpc.backoff_time;
    res.faults.recovery_wait_time += rpc.recovery_wait_time;
    accumulate_token_stats(res, *clients[r]);
  }
  res.token_grants = fs.tokens().stats().grants;
  res.token_splits = fs.tokens().stats().splits;
  res.observed_write_bw_mbs =
      sim::megabytes_per_second(res.bytes_written, res.max_node_write_time);
  // Token conservation: the manager's running grant ledger must equal the
  // write bytes still outstanding in its table once the run drains.
  if (auto* a = sim.auditor()) {
    a->check_token_conservation(sim.now(), fs.tokens().write_granted_bytes());
  }
  res.faults.injected_events = static_cast<std::uint64_t>(injector.injected());
  res.mesh_segmented_messages = machine.mesh().segmented_messages();
  res.mesh_segments = machine.mesh().segments_sent();
  res.top_links = machine.mesh().top_busy_links(5);
  for (int io = 0; io < spec_.nio; ++io) {
    res.server_batch_sweeps += fs.server(io).batch_sweeps();
    res.server_batched_extents += fs.server(io).batched_extents();
    hw::RaidArray& raid = machine.raid(io);
    res.faults.reconstructed_reads += raid.reconstructed_reads();
    res.faults.degraded_writes += raid.degraded_writes();
    for (std::size_t m = 0; m < raid.member_count(); ++m) {
      res.faults.disk_transients += raid.member(m).transient_errors_fired();
    }
    if (auto* tier = fs.server(io).ufs().cache_tier()) {
      const auto& cs = tier->stats();
      res.cache_lookups += cs.lookups;
      res.cache_hits += cs.hits;
      res.cache_inserts += cs.inserts;
      res.cache_evictions += cs.evictions;
      res.cache_journal_flushes += cs.journal_flushes;
      res.cache_recoveries += cs.recoveries;
      res.cache_recovered_blocks += cs.recovered_blocks;
      res.cache_torn_dropped += cs.torn_entries_dropped;
      res.cache_stale_dropped += cs.stale_entries_dropped;
      res.cache_recovery_time += cs.total_recovery_time;
      if (cs.recoveries > 0) {
        // Warm-restart quality: only servers that actually replayed a
        // journal contribute (an uncrashed node's hits are just tier hits).
        res.cache_warm_lookups += cs.warm_lookups;
        res.cache_warm_hits += cs.warm_hits;
      }
      res.faults.node_recoveries += cs.recoveries;
      res.faults.node_recovery_time += cs.total_recovery_time;
      // Every bit ever set in this tier is now resident or was accounted
      // as cleared — the cache analogue of buffer conservation.
      if (auto* a = sim.auditor()) {
        a->check_cache_bitmap_conservation(sim.now(), tier, tier->resident_blocks());
      }
    }
  }
  res.cache_warm_hit_ratio =
      res.cache_warm_lookups
          ? static_cast<double>(res.cache_warm_hits) /
                static_cast<double>(res.cache_warm_lookups)
          : 0.0;
  // With the run drained, the fault ledger must balance: every manifested
  // fault was healed by retry, repaired by reconstruction, or is terminal.
  if (auto* a = sim.auditor()) a->check_fault_conservation(sim.now());
  res.wall_elapsed = t1 - t0;
  res.mean_read_call_time =
      res.reads ? std::accumulate(res.node_read_time.begin(), res.node_read_time.end(), 0.0) /
                      static_cast<double>(res.reads)
                : 0.0;
  res.observed_read_bw_mbs =
      sim::megabytes_per_second(res.total_bytes, res.max_node_read_time);
  res.wall_bw_mbs = sim::megabytes_per_second(res.total_bytes, res.wall_elapsed);
  res.digest = sim.digest();
  res.events_dispatched = sim.events_dispatched();
  res.peak_pending_events = sim.peak_pending_events();
  res.event_queue_bytes = sim.event_queue_bytes();
  res.frame_arena_bytes = sim::FrameArena::local().stats().peak_live_bytes - arena_base;
  res.bytes_per_event =
      res.events_dispatched
          ? static_cast<double>(res.event_queue_bytes + res.frame_arena_bytes) /
                static_cast<double>(res.events_dispatched)
          : 0.0;
  // The post-run hook sees the live mount (fsck audits, corruption
  // injection for tests) after metrics are final but before teardown.
  if (post_run) post_run(fs);
  return res;
}

sim::SimTime Experiment::read_access_time(ByteCount request_size) const {
  WorkloadSpec w;
  w.mode = IoMode::kRecord;
  w.request_size = request_size;
  // 4 rounds give a steady-state mean without a long run.
  w.file_size = request_size * static_cast<ByteCount>(spec_.ncompute) * 4;
  const auto res = run(w);
  return res.mean_read_call_time;
}

}  // namespace ppfs::workload
