#include "pfs/server.hpp"

#include <deque>
#include <limits>
#include <utility>

#include "hw/disk_sched.hpp"
#include "sim/inline_vec.hpp"
#include "sim/when_all.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace ppfs::pfs {

PfsServer::PfsServer(hw::Machine& machine, int io_index, const PfsParams& params,
                     ufs::ContentArena& content_arena)
    : machine_(machine),
      io_index_(io_index),
      mesh_node_(machine.io_node(io_index)),
      params_(params),
      device_(machine.raid(io_index)),
      content_(content_arena, params.ufs.block_bytes),
      ufs_(machine.simulation(), "ufs-io" + std::to_string(io_index), device_, content_,
           &machine.cpu(mesh_node_), params.ufs),
      up_ev_(machine.simulation()) {
  up_ev_.set();
}

void PfsServer::crash() {
  if (down_) return;
  down_ = true;
  ++crash_epoch_;
  // The tier's volatile residency dies with the daemon; any journal write
  // caught in flight is torn on the cache device.
  if (auto* tier = ufs_.cache_tier()) tier->on_crash();
  if (topology_epoch_) ++*topology_epoch_;
  up_ev_.reset();
}

void PfsServer::restore() {
  if (!down_) return;
  if (ufs_.cache_tier() == nullptr) {
    // No tier: the original synchronous restart (bit-identical schedules).
    down_ = false;
    ufs_.drop_caches();  // restart comes back cold
    if (topology_epoch_) ++*topology_epoch_;
    up_ev_.set();
    return;
  }
  if (recovering_) return;  // a recovery pass for this outage already runs
  recovering_ = true;
  machine_.simulation().spawn(recover_and_come_up());
}

sim::Task<void> PfsServer::recover_and_come_up() {
  cache::CacheTier* tier = ufs_.cache_tier();
  const std::uint64_t epoch = crash_epoch_;
  const std::uint64_t recovered_before = tier->stats().recovered_blocks;
  std::uint64_t span = 0;
  if (trace::TraceSink* sink = machine_.simulation().trace()) {
    span = sink->new_span();
    sink->record(trace::TraceRecord(machine_.simulation().now(), trace::TraceKind::kSpanBegin,
                                    trace::TraceTrack::kServer, trace::code::kRecovery,
                                    io_index_, span, 0, epoch));
  }
  co_await tier->recover();
  if (span != 0) {
    if (trace::TraceSink* sink = machine_.simulation().trace()) {
      sink->record(trace::TraceRecord(machine_.simulation().now(), trace::TraceKind::kSpanEnd,
                                      trace::TraceTrack::kServer, trace::code::kRecovery,
                                      io_index_, span,
                                      tier->stats().recovered_blocks - recovered_before,
                                      epoch));
    }
  }
  recovering_ = false;
  // crash() is a no-op while down, so the epoch cannot have moved — but if
  // it ever does, stay down rather than come up on a dead epoch's state.
  if (crash_epoch_ != epoch || !down_) co_return;
  down_ = false;
  ufs_.drop_caches();  // the first-tier buffer cache is still cold
  if (topology_epoch_) ++*topology_epoch_;
  up_ev_.set();
}

fault::FaultError PfsServer::down_error() const {
  return fault::FaultError(fault::ErrorCause::kNodeDown,
                           "io" + std::to_string(io_index_) + " daemon down");
}

sim::Task<void> PfsServer::admit() {
  if (down_) throw down_error();
  ++requests_;
  return machine_.cpu(mesh_node_).compute(params_.server_request_overhead);
}

std::uint64_t PfsServer::phys_key(const QueuedIo& item) const {
  const ufs::Inode& ino = ufs_.inode_of(item.op->ino);
  const std::uint64_t lblock = item.op->local_off / params_.ufs.block_bytes;
  if (lblock < ino.blocks.size()) return ino.blocks[lblock];
  return std::numeric_limits<std::uint64_t>::max();  // unallocated: serve last
}

void PfsServer::kick_dispatcher() {
  if (dispatcher_running_ || queue_.empty()) return;
  dispatcher_running_ = true;
  machine_.simulation().spawn(batch_dispatch());
}

sim::Task<void> PfsServer::sweep_and_signal(std::vector<sim::Task<void>> parts,
                                            sim::Event& done, std::uint64_t trace_span) {
  const std::size_t n = parts.size();
  co_await sim::when_all(machine_.simulation(), std::move(parts));
  // Close the sweep span opened at spawn time. Up to two sweeps are
  // pipelined per server, so the pair is correlated by id (async export).
  if (trace_span != 0) {
    if (trace::TraceSink* sink = machine_.simulation().trace()) {
      sink->record(trace::TraceRecord(machine_.simulation().now(),
                                      trace::TraceKind::kSpanEnd, trace::TraceTrack::kServer,
                                      trace::code::kBatchSweep, io_index_, trace_span, n));
    }
  }
  done.set();
}

sim::Task<void> PfsServer::batch_dispatch() {
  // Keep at most two sweeps in flight: spawn sweep k, then wait for sweep
  // k-1 before collecting sweep k+1. A full barrier between sweeps would
  // idle the disks behind every sweep's bus-transfer tail; with one sweep
  // of lookahead the device queues never drain while issue order (and so
  // physical ordering at each member disk) is preserved.
  std::unique_ptr<sim::Event> prev;
  for (;;) {
    if (queue_.empty()) {
      if (!prev) break;
      co_await prev->wait();
      prev.reset();
      continue;  // arrivals during the wait get their own sweep
    }
    std::vector<QueuedIo*> batch;
    batch.swap(queue_);
    ++batch_sweeps_;
    batched_extents_ += batch.size();

    // One elevator sweep over the batch in physical-position order; items
    // arriving while the sweep runs queue up for the next one.
    std::vector<std::uint64_t> keys;
    keys.reserve(batch.size());
    for (const QueuedIo* item : batch) keys.push_back(phys_key(*item));
    const std::vector<std::size_t> order = hw::sweep_order(keys, sweep_head_);

    // Issue the sweep in physical-position order. Consecutive sweep items
    // that qualify for the fast path are handed to the UFS as ONE sorted
    // batch (ufs::Ufs::read_sorted): physically-contiguous blocks — even
    // across stripe-file boundaries — merge into single streaming device
    // transfers, which is where batching actually beats arrival order
    // (one seek and one controller/bus charge per run, not per block).
    // Items the fast path can't take (writes, unaligned or EOF-straddling
    // reads) are served individually, still in sweep order; the FIFO
    // resources downstream preserve issue order while the pipeline stages
    // overlap across items.
    std::vector<sim::Task<void>> parts;
    parts.reserve(order.size());
    std::vector<QueuedIo*> group;
    const auto flush_group = [&] {
      if (group.empty()) return;
      parts.push_back(serve_sorted(std::move(group)));
      group.clear();
    };
    for (std::size_t idx : order) {
      QueuedIo& item = *batch[idx];
      if (!down_ && !item.is_write && item.fastpath &&
          ufs_.fastpath_read_eligible(item.op->ino, item.op->local_off, item.op->len)) {
        group.push_back(&item);
      } else {
        flush_group();
        parts.push_back(serve_queued(item));
      }
    }
    flush_group();
    sweep_head_ = keys[order.back()];
    std::uint64_t sweep_span = 0;
    if (trace::TraceSink* sink = machine_.simulation().trace()) {
      sweep_span = sink->new_span();
      sink->record(trace::TraceRecord(machine_.simulation().now(),
                                      trace::TraceKind::kSpanBegin, trace::TraceTrack::kServer,
                                      trace::code::kBatchSweep, io_index_, sweep_span,
                                      batch.size()));
    }
    auto done = std::make_unique<sim::Event>(machine_.simulation());
    machine_.simulation().spawn(sweep_and_signal(std::move(parts), *done, sweep_span));
    if (prev) co_await prev->wait();
    prev = std::move(done);
  }
  dispatcher_running_ = false;
}

sim::Task<void> PfsServer::serve_sorted(std::vector<QueuedIo*> group) {
  std::vector<ufs::Ufs::BatchRead> reads;
  reads.reserve(group.size());
  for (const QueuedIo* item : group) {
    const ExtentOp& op = *item->op;
    reads.push_back(ufs::Ufs::BatchRead{op.ino, op.local_off, op.len, op.out, 0});
  }
  try {
    co_await ufs_.read_sorted(reads);
    for (std::size_t i = 0; i < group.size(); ++i) group[i]->op->got = reads[i].got;
  } catch (const fault::FaultError& e) {
    // A fault mid-sweep fails the whole group; each client retries its
    // (idempotent) RPC through the usual envelope.
    for (QueuedIo* item : group) {
      item->failed = true;
      item->cause = e.cause();
      item->what = e.what();
    }
  }
  for (QueuedIo* item : group) item->done.set();
}

sim::Task<void> PfsServer::serve_queued(QueuedIo& item) {
  try {
    // A crash fails everything still queued; clients recover through the
    // usual RPC envelope (down-wait, reissue after restore).
    if (down_) throw down_error();
    co_await access(*item.op, item.is_write, item.fastpath);
  } catch (const fault::FaultError& e) {
    item.failed = true;
    item.cause = e.cause();
    item.what = e.what();
  }
  item.done.set();
}

sim::Task<void> PfsServer::access(ExtentOp& op, bool is_write, bool fastpath) {
  if (is_write) {
    co_await ufs_.write(op.ino, op.local_off, op.in, fastpath);
    op.got = op.in.size();
  } else {
    op.got = co_await ufs_.read(op.ino, op.local_off, op.len, op.out, fastpath);
  }
}

sim::Task<void> PfsServer::serve(ExtentOp& op, bool is_write, bool fastpath) {
  co_await admit();
  if (params_.server_batch) {
    QueuedIo item(machine_.simulation(), op, is_write, fastpath);
    queue_.push_back(&item);
    kick_dispatcher();
    co_await item.done.wait();
    if (item.failed) throw fault::FaultError(item.cause, item.what);
  } else if (is_write) {
    // The UFS call is awaited here, not through access(): the default
    // path pays no extra coroutine frame per request.
    co_await ufs_.write(op.ino, op.local_off, op.in, fastpath);
    op.got = op.in.size();
  } else {
    op.got = co_await ufs_.read(op.ino, op.local_off, op.len, op.out, fastpath);
  }
}

sim::Task<void> PfsServer::serve_batch(std::span<ExtentOp> ops, bool is_write, bool fastpath) {
  // One request-handling charge for the whole scatter-gather RPC — the
  // saving that motivates coalescing.
  co_await admit();

  if (params_.server_batch) {
    // Queue every extent before kicking the dispatcher so the whole RPC
    // sorts as one sweep (spawn runs the dispatcher eagerly).
    std::deque<QueuedIo> items;
    for (ExtentOp& op : ops) {
      queue_.push_back(&items.emplace_back(machine_.simulation(), op, is_write, fastpath));
    }
    kick_dispatcher();
    const QueuedIo* failed = nullptr;
    for (QueuedIo& item : items) {
      co_await item.done.wait();
      if (item.failed && failed == nullptr) failed = &item;
    }
    if (failed != nullptr) throw fault::FaultError(failed->cause, failed->what);
    co_return;
  }

  // ppfs::hot — per-RPC fan-out over its extents, in inline storage
  sim::InlineVec<sim::Task<void>, 8> parts;
  for (ExtentOp& op : ops) parts.push_back(access(op, is_write, fastpath));
  co_await sim::when_all_propagate(machine_.simulation(), parts);
  // ppfs::endhot
}

}  // namespace ppfs::pfs
