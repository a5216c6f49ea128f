#include "workload/rig.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "fault/error.hpp"
#include "sim/check/audit.hpp"
#include "sim/event.hpp"
#include "sim/frame_arena.hpp"
#include "sim/when_all.hpp"
#include "workload/generator.hpp"

namespace ppfs::workload::detail {

namespace {

hw::MachineConfig machine_config(const MachineSpec& spec, Topology topology) {
  hw::MachineConfig cfg =
      topology == Topology::kParagon
          ? hw::MachineConfig::paragon(spec.ncompute, spec.nio, spec.raid)
          : hw::MachineConfig::paragon_scaled(spec.ncompute, spec.nio, spec.raid);
  cfg.compute_cpu = spec.compute_cpu;
  cfg.io_cpu = spec.io_cpu;
  cfg.mesh.mtu = spec.mesh_mtu;
  return cfg;
}

constexpr ByteCount kPopulateChunk = 1024 * 1024;

/// kPopulateChunk bytes of zeros that nothing can write: a read-only
/// anonymous mapping, so every page is the kernel's shared zero page and
/// reading them costs no memory. Mapped once per process, never unmapped.
std::span<const std::byte> zero_region() {
  static const std::byte* const zeros = [] {
    void* p = ::mmap(nullptr, kPopulateChunk, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<const std::byte*>(p);
  }();
  return {zeros, kPopulateChunk};
}

/// What one reader of a read phase tallies.
struct ReadTally {
  sim::SimTime start = 0;  // passed the start line
  sim::SimTime end = 0;    // last read call returned
  ByteCount bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t app_errors = 0;       // FaultErrors surfaced to the application
  sim::StreamingQuantiles latencies;  // per read call, fixed footprint
  bool finished = false;              // ran every op and closed its file
};

/// Where a read of `len` that moved `got` bytes began, from the rank's file
/// pointer before and after the call.
FileOffset read_offset(pfs::IoMode mode, int rank, FileOffset before, FileOffset after,
                       ByteCount len, ByteCount got) {
  switch (mode) {
    case pfs::IoMode::kLog:
    case pfs::IoMode::kSync:
      // The claimed region is only known after the fact: the client's
      // pointer lands at the claim's end.
      return after - got;
    case pfs::IoMode::kRecord:
      return before + static_cast<FileOffset>(rank) * len;
    default:
      return before;
  }
}

sim::Task<void> reader(pfs::PfsClient& client, const ReadPlan& plan, bool verify,
                       sim::Barrier& start_line, ReadTally& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open(plan.file, plan.mode);
  if (!plan.fastpath) client.set_fastpath(fd, false);
  if (plan.start != 0) co_await client.seek(fd, plan.start);
  co_await start_line.arrive_and_wait();
  out.start = out.end = sim.now();

  std::vector<std::byte> buf;
  for (const TraceOp& op : plan.ops) {
    if (op.kind == TraceOp::Kind::kSeek) {
      co_await client.seek(fd, op.offset);
      continue;
    }
    buf.resize(op.length);
    const FileOffset before = client.tell(fd);
    const sim::SimTime call_start = sim.now();
    ByteCount got = 0;
    bool failed = false;
    try {
      got = co_await client.read(fd, buf);
    } catch (const fault::FaultError&) {
      // A terminal fault (retry budget exhausted) surfaces to the
      // application as a failed read; the run carries on with the next
      // op, like a real program retrying at its own level would.
      failed = true;
    }
    out.latencies.add(sim.now() - call_start);
    out.bytes += got;
    ++out.reads;
    out.end = sim.now();
    if (failed) {
      ++out.app_errors;
    } else if (verify && got > 0) {
      const FileOffset off =
          read_offset(plan.mode, client.rank(), before, client.tell(fd), op.length, got);
      if (find_pattern_mismatch(plan.tag, off, std::span<const std::byte>(buf).first(got)) !=
          kNoMismatch) {
        ++out.verify_failures;
      }
    }
    if (op.think > 0) co_await sim.delay(op.think);
  }
  client.close(fd);
  out.finished = true;
}

}  // namespace

sim::Task<void> populate(pfs::PfsClient& loader, std::string name, std::uint64_t tag,
                         ByteCount size) {
  const int fd = co_await loader.open(name, pfs::IoMode::kAsync);
  const ByteCount chunk = std::min<ByteCount>(size, kPopulateChunk);
  // Tag 0 writes from the shared zero region. Any other tag fills its own
  // buffer, left uninitialised: fill_pattern writes every byte it sends.
  std::unique_ptr<std::byte[]> pattern;
  std::span<const std::byte> src = zero_region();
  if (tag != 0) {
    pattern = std::make_unique_for_overwrite<std::byte[]>(chunk);
    src = std::span<const std::byte>(pattern.get(), chunk);
  }
  for (ByteCount off = 0; off < size; off += chunk) {
    const ByteCount n = std::min<ByteCount>(chunk, size - off);
    if (tag != 0) fill_pattern(tag, off, std::span(pattern.get(), n));
    co_await loader.write(fd, src.first(n));
  }
  loader.close(fd);
}

Rig::Rig(const MachineSpec& spec, Topology topology, int nclients, trace::TraceSink* sink)
    : arena_base_(sim::FrameArena::local().reset_peak()),
      machine_(sim_, machine_config(spec, topology)),
      fs_(machine_, spec.pfs),
      injector_(machine_, fs_) {
  sim_.set_trace_sink(sink);
  clients_.reserve(static_cast<std::size_t>(nclients));
  for (int r = 0; r < nclients; ++r) {
    clients_.push_back(std::make_unique<pfs::PfsClient>(fs_, r, r, nclients));
  }
}

void Rig::attach_prefetchers(const prefetch::PrefetchConfig& cfg) {
  for (auto& c : clients_) engines_.push_back(prefetch::attach_prefetcher(*c, cfg));
}

void Rig::run_populate(std::vector<sim::Task<void>> loads, const char* who) {
  if (loads.empty()) return;
  bool done = false;
  // ppfs-lint: allow(ref-across-await) flag is a local; sim_.run() below blocks until done
  sim_.spawn([](sim::Simulation& s, std::vector<sim::Task<void>> ts, bool& flag)
                 -> sim::Task<void> {
    co_await sim::when_all(s, std::move(ts));
    flag = true;
  }(sim_, std::move(loads), done));
  sim_.run();
  if (!done) throw std::runtime_error(std::string(who) + ": population deadlocked");
}

void Rig::start_phase(const fault::FaultPlan& plan) {
  base_.clear();
  for (const auto& c : clients_) {
    const pfs::ClientStats& st = c->stats();
    base_.push_back(Baseline{st.read_time, st.write_time, st.writes, st.bytes_written});
  }
  if (!plan.empty()) injector_.arm(plan, sim_.now());
}

void Rig::collect(RunCounters& res, std::uint64_t app_errors) {
  for (std::size_t r = 0; r < clients_.size(); ++r) {
    const pfs::PfsClient& c = *clients_[r];
    const Baseline& b = base_[r];
    const pfs::ClientStats& st = c.stats();
    res.writes += st.writes - b.writes;
    res.bytes_written += st.bytes_written - b.bytes_written;
    const sim::SimTime rt = st.read_time - b.read_time;
    res.node_read_time.push_back(rt);
    res.max_node_read_time = std::max(res.max_node_read_time, rt);
    res.max_node_write_time = std::max(res.max_node_write_time, st.write_time - b.write_time);

    const pfs::RpcStats& rpc = c.rpc_stats();
    res.data_rpcs += rpc.data_rpcs;
    res.metadata_rpcs += rpc.metadata_rpcs;
    res.pointer_rpcs += rpc.pointer_rpcs;
    res.coalesced_rpcs += rpc.coalesced_rpcs;
    res.coalesced_extents += rpc.coalesced_extents;
    res.stripe_map_refreshes += rpc.stripe_map_refreshes;
    res.faults.rpc_retries += rpc.retries;
    res.faults.rpc_down_waits += rpc.down_waits;
    res.faults.rpc_timeouts += rpc.timeouts;
    res.faults.terminal_errors += rpc.terminal_errors;
    res.faults.backoff_time += rpc.backoff_time;
    res.faults.recovery_wait_time += rpc.recovery_wait_time;

    res.token_rpcs += rpc.token_rpcs;
    const pfs::TokenCacheStats& ts = c.token_stats();
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
  res.observed_write_bw_mbs =
      sim::megabytes_per_second(res.bytes_written, res.max_node_write_time);
  for (const auto& e : engines_) {
    const prefetch::PrefetchStats& st = e->stats();
    res.prefetch.merge(st);
    res.faults.shed_prefetches += st.shed;
    res.faults.stale_epoch_discards += st.epoch_discarded;
  }
  res.faults.app_errors = app_errors;
  res.faults.injected_events = static_cast<std::uint64_t>(injector_.injected());

  res.token_grants = fs_.tokens().stats().grants;
  res.token_splits = fs_.tokens().stats().splits;
  // Token conservation: the manager's running grant ledger must equal the
  // write bytes still outstanding in its table once the run drains.
  sim::check::Auditor* audit = sim_.auditor();
  if (audit) audit->check_token_conservation(sim_.now(), fs_.tokens().write_granted_bytes());

  res.mesh_segmented_messages = machine_.mesh().segmented_messages();
  res.mesh_segments = machine_.mesh().segments_sent();
  res.top_links = machine_.mesh().top_busy_links(5);
  for (int io = 0; io < fs_.server_count(); ++io) {
    pfs::PfsServer& server = fs_.server(io);
    res.server_batch_sweeps += server.batch_sweeps();
    res.server_batched_extents += server.batched_extents();
    hw::RaidArray& raid = machine_.raid(io);
    res.faults.reconstructed_reads += raid.reconstructed_reads();
    res.faults.degraded_writes += raid.degraded_writes();
    for (std::size_t m = 0; m < raid.member_count(); ++m) {
      res.faults.disk_transients += raid.member(m).transient_errors_fired();
    }
    if (auto* tier = server.ufs().cache_tier()) {
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
      if (audit) {
        audit->check_cache_bitmap_conservation(sim_.now(), tier, tier->resident_blocks());
      }
    }
  }
  res.cache_warm_hit_ratio = res.cache_warm_lookups
                                 ? static_cast<double>(res.cache_warm_hits) /
                                       static_cast<double>(res.cache_warm_lookups)
                                 : 0.0;
  // With the run drained, the fault ledger must balance: every manifested
  // fault was healed by retry, repaired by reconstruction, or is terminal.
  if (audit) audit->check_fault_conservation(sim_.now());

  res.digest = sim_.digest();
  res.events_dispatched = sim_.events_dispatched();
  res.peak_pending_events = sim_.peak_pending_events();
  res.event_queue_bytes = sim_.event_queue_bytes();
  res.frame_arena_bytes = sim::FrameArena::local().stats().peak_live_bytes - arena_base_;
  res.machine_state_bytes = machine_.state_memory_bytes();
  res.bytes_per_event =
      res.events_dispatched
          ? static_cast<double>(res.event_queue_bytes + res.frame_arena_bytes) /
                static_cast<double>(res.events_dispatched)
          : 0.0;
}

void Rig::run_reads(const std::vector<ReadPlan>& plans, bool verify, ExperimentResult& res,
                    const char* who) {
  sim::Barrier start_line(sim_, plans.size());
  std::vector<ReadTally> tallies(plans.size());
  for (std::size_t r = 0; r < plans.size(); ++r) {
    sim_.spawn(reader(client(static_cast<int>(r)), plans[r], verify, start_line, tallies[r]));
  }
  sim_.run();

  std::uint64_t app_errors = 0;
  sim::SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (std::size_t r = 0; r < plans.size(); ++r) {
    const ReadTally& t = tallies[r];
    if (!t.finished) {
      throw std::runtime_error(std::string(who) + ": node " + std::to_string(r) +
                               " did not finish its reads (deadlock?)");
    }
    res.total_bytes += t.bytes;
    res.reads += t.reads;
    res.verify_failures += t.verify_failures;
    app_errors += t.app_errors;
    t0 = std::min(t0, t.start);
    t1 = std::max(t1, t.end);
    res.read_latencies.merge(t.latencies);
  }
  collect(res, app_errors);
  res.wall_elapsed = t1 - t0;
  res.mean_read_call_time =
      res.reads ? std::accumulate(res.node_read_time.begin(), res.node_read_time.end(), 0.0) /
                      static_cast<double>(res.reads)
                : 0.0;
  res.observed_read_bw_mbs =
      sim::megabytes_per_second(res.total_bytes, res.max_node_read_time);
  res.wall_bw_mbs = sim::megabytes_per_second(res.total_bytes, res.wall_elapsed);
}

}  // namespace ppfs::workload::detail
