#include "pfs/client.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "fault/retry.hpp"
#include "sim/check/audit.hpp"
#include "sim/event.hpp"
#include "sim/inline_vec.hpp"
#include "sim/when_all.hpp"
#include "trace/span.hpp"

namespace ppfs::pfs {

namespace {

/// M_RECORD and M_ASYNC place a request from the local file pointer alone;
/// every other mode claims its offset from the metadata node.
bool resolves_locally(IoMode mode) { return mode == IoMode::kRecord || mode == IoMode::kAsync; }

/// Where extent `e` lies in `buf`, whose first byte is file offset `base`:
/// its first piece, then one stripe unit every group × unit bytes. View
/// position p holds the extent's local byte local_offset + p.
template <typename Byte>
ufs::StridedSpan<Byte> extent_view(const IoNodeRequest& e, const StripeAttrs& attrs,
                                   std::span<Byte> buf, FileOffset base) {
  const FileOffset first = e.pieces.front().file_offset;
  const ByteCount unit = attrs.stripe_unit;
  return ufs::StridedSpan<Byte>(buf.data() + (first - base), e.length, first % unit, unit,
                                unit * static_cast<ByteCount>(attrs.group_size()));
}

}  // namespace

PfsClient::PfsClient(PfsFileSystem& fs, int compute_index, int rank, int nprocs)
    : fs_(fs),
      machine_(fs.machine()),
      compute_index_(compute_index),
      mesh_node_(machine_.compute_node(compute_index)),
      rank_(rank),
      nprocs_(nprocs),
      arts_(machine_.simulation(), fs.params().max_arts_per_client,
            [this](const AsyncRequest& req) {
              if (req.is_write) return write_at(req.fd, req.offset, req.in);
              return read_at(req.fd, req.offset, req.length, req.out, req.fastpath);
            }),
      rpc_rng_(0x5eedull ^ ((static_cast<std::uint64_t>(rank) + 1) * 0x9e3779b97f4a7c15ull)) {
  if (rank < 0 || nprocs <= 0 || rank >= nprocs) {
    throw std::invalid_argument("PfsClient: bad rank/nprocs");
  }
  if (fs_.params().write_tokens) {
    token_client_id_ = fs_.tokens().register_handler(this);
  }
}

PfsClient::~PfsClient() {
  if (token_client_id_ >= 0) fs_.tokens().unregister_handler(token_client_id_);
}

PfsClient::OpenFile& PfsClient::fstate(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) throw std::invalid_argument("PfsClient: bad fd");
  return it->second;
}

const PfsClient::OpenFile& PfsClient::fstate(int fd) const {
  auto it = fds_.find(fd);
  if (it == fds_.end()) throw std::invalid_argument("PfsClient: bad fd");
  return it->second;
}

sim::Task<void> PfsClient::metadata_rpc() {
  ++rpc_stats_.metadata_rpcs;
  const auto ctrl = fs_.params().control_message_bytes;
  // Issue->reply envelope; async because a rank can have several RPC
  // classes in flight at once. One span per counter increment, so the
  // trace's per-class span counts always equal the RpcStats counters.
  trace::SpanGuard span(machine_.simulation(), trace::TraceTrack::kRpc,
                        trace::code::kRpcMetadata, rank_, /*async=*/true, ctrl,
                        static_cast<std::uint64_t>(fs_.metadata_node()));
  co_await machine_.mesh().send(mesh_node_, fs_.metadata_node(), ctrl);
  co_await machine_.mesh().send(fs_.metadata_node(), mesh_node_, ctrl);
  span.end(ctrl);
}

sim::Task<void> PfsClient::ensure_stripe_map(const PfsFileMeta& meta) {
  const std::uint64_t epoch = fs_.topology_epoch();
  auto it = stripe_map_epoch_.find(meta.id);
  if (it != stripe_map_epoch_.end() && it->second == epoch) co_return;
  // One metadata round-trip (re)loads the file's whole stripe map; until a
  // crash/restore bumps the topology epoch, every later operation on this
  // file resolves its extents from the cached map instead of paying a
  // per-operation metadata trip. The cache is stamped before awaiting so
  // concurrent operations on the same file piggyback on the in-flight load
  // instead of stampeding the metadata node (the load itself cannot fail —
  // the mesh always delivers).
  stripe_map_epoch_[meta.id] = epoch;
  ++rpc_stats_.stripe_map_refreshes;
  co_await metadata_rpc();
  co_await machine_.cpu(fs_.metadata_node()).compute(fs_.params().pointer_service_time);
}

sim::Task<int> PfsClient::open(const std::string& name, IoMode mode) {
  co_await cpu().compute(cpu().params().syscall_overhead);
  co_await metadata_rpc();
  PfsFileMeta* meta = fs_.lookup(name);
  if (!meta) throw std::invalid_argument("PfsClient::open: no such PFS file: " + name);
  const int fd = next_fd_++;
  fds_[fd] = OpenFile{meta->id, mode, 0};
  if (prefetcher_) prefetcher_->on_open(fd);
  co_return fd;
}

void PfsClient::close(int fd) {
  fstate(fd);  // validate
  if (prefetcher_) prefetcher_->on_close(fd);
  fds_.erase(fd);
}

FileOffset PfsClient::tell(int fd) const { return fstate(fd).pointer; }
IoMode PfsClient::mode_of(int fd) const { return fstate(fd).mode; }
ByteCount PfsClient::file_size(int fd) const { return fs_.file(fstate(fd).file).size; }

FileOffset PfsClient::next_read_offset(int fd, ByteCount len) const {
  // Best-effort for M_SYNC (assumes equal-size requests) and M_LOG
  // (assumes this node claims next).
  return local_offset(fstate(fd), len);
}

bool PfsClient::next_offset_predictable(int fd) const {
  switch (fstate(fd).mode) {
    case IoMode::kRecord:
    case IoMode::kUnix:
    case IoMode::kAsync:
      return true;
    default:
      return false;
  }
}

sim::Task<void> PfsClient::set_iomode(int fd, IoMode mode) {
  OpenFile& f = fstate(fd);
  co_await cpu().compute(cpu().params().syscall_overhead);
  co_await metadata_rpc();
  f.mode = mode;
}

sim::Task<void> PfsClient::seek(int fd, FileOffset off) {
  OpenFile& f = fstate(fd);
  co_await cpu().compute(cpu().params().syscall_overhead);
  if (traits(f.mode).shared_pointer) {
    // Repositioning a shared pointer is a metadata operation.
    co_await metadata_rpc();
    fs_.pointers().set_pointer(f.file, off);
  }
  f.pointer = off;
}

sim::Task<void> PfsClient::data_rpc(PfsFileMeta& meta, std::span<const IoNodeRequest> extents,
                                    bool batched, FileOffset base, UserBuffer buf,
                                    bool fastpath) {
  auto& sim = machine_.simulation();
  const auto ctrl = fs_.params().control_message_bytes;
  const int io_index = extents.front().io_index;
  const hw::NodeId io_node = machine_.io_node(io_index);
  const sim::SimTime deadline = sim.now() + fs_.params().retry.total_budget_s;
  ByteCount length = 0;
  for (const IoNodeRequest& e : extents) length += e.length;

  ++rpc_stats_.data_rpcs;
  if (batched) {
    ++rpc_stats_.coalesced_rpcs;
    rpc_stats_.coalesced_extents += extents.size();
  }
  // The span covers the whole reliability envelope (all attempts). If the
  // retry budget runs out, rpc_recover throws and the guard's destructor
  // closes the span with kFlagFault as the frame unwinds. Coalesced RPCs
  // are tagged kRpcCoalesced, not kRpcData, so the two span classes
  // partition data_rpcs the way the report's counters do.
  trace::SpanGuard rpc_span(sim, trace::TraceTrack::kRpc,
                            batched ? trace::code::kRpcCoalesced : trace::code::kRpcData, rank_,
                            /*async=*/true, length, static_cast<std::uint64_t>(io_index),
                            buf.is_write ? trace::kFlagWrite : std::uint8_t{0});

  // "Fast Path reads data directly from the disks to the user's buffer":
  // every extent moves straight between the caller's buffer and the
  // server, through a view of where its pieces lie there.
  const StripeAttrs& attrs = meta.layout.attrs();
  sim::InlineVec<PfsServer::ExtentOp, 1> ops;
  std::size_t pieces = 0;
  for (const IoNodeRequest& e : extents) {
    PfsServer::ExtentOp& op = ops.emplace_back();
    op.ino = meta.stripe_inos[e.group_slot];
    op.local_off = e.local_offset;
    op.len = e.length;
    if (buf.is_write) {
      op.in = extent_view(e, attrs, buf.in, base);
    } else {
      op.out = extent_view(e, attrs, buf.out, base);
    }
    pieces += e.pieces.size();
  }

  for (std::uint32_t attempt = 0, failures = 0;; ++attempt) {
    PfsServer& srv = fs_.server(io_index);
    ByteCount got = 0;
    fault::ErrorCause cause{};
    bool failed = false;
    try {
      ++rpc_stats_.attempts;
      // A reply is only trustworthy if the server did not crash while the
      // request was in flight. Reads and writes of the same bytes are
      // idempotent, so a lost reply or ack is simply reissued (a lost
      // reply's bytes are overwritten by the reissue).
      const std::uint64_t epoch = srv.crash_epoch();

      // The request goes out: a control message for a read, the data for
      // a write. On the fast path the real machine DMAs between disk and
      // network without a server copy, so no server CPU copy is charged
      // beyond request handling.
      co_await machine_.mesh().send(mesh_node_, io_node, buf.is_write ? length : ctrl);
      if (batched) {
        co_await srv.serve_batch(std::span(ops.data(), ops.size()), buf.is_write, fastpath);
      } else {
        co_await srv.serve(ops[0], buf.is_write, fastpath);
      }
      for (const PfsServer::ExtentOp& op : ops) got += op.got;
      if (srv.crash_epoch() != epoch) {
        throw fault::FaultError(fault::ErrorCause::kNodeDown,
                                "io" + std::to_string(io_index) + " reply lost in crash");
      }
      // The reply comes back: a read's data, or a write's ack.
      co_await machine_.mesh().send(io_node, mesh_node_,
                                    !buf.is_write && got > 0 ? got : ctrl);
    } catch (const fault::FaultError& e) {
      cause = e.cause();
      failed = true;
    }
    if (failed) {
      ++failures;
      co_await rpc_recover(io_index, cause, attempt, failures, deadline);
      continue;
    }
    if (failures > 0) {
      rpc_stats_.retried_ok += failures;
      if (auto* a = sim.auditor()) a->on_fault_retried_ok(failures);
    }
    rpc_span.end(got, batched ? extents.size() : static_cast<std::uint64_t>(io_index));

    // Bytes past an extent's `got` are a hole: the PFS file goes on, but no
    // write reached this stripe file that far. Holes read as zeros. When an
    // RPC moves more than one piece, the auditor holds the bytes the server
    // reported against the bytes that landed through the views: each range
    // arrives once, none lost, none duplicated.
    ByteCount landed = 0;
    for (const PfsServer::ExtentOp& op : ops) {
      const ByteCount view = buf.is_write ? op.in.size() : op.out.size();
      const ByteCount n = std::min(op.got, view);
      if (!buf.is_write) op.out.subspan(n, view - n).fill_zero();
      landed += n;
    }
    if (pieces > 1) {
      if (auto* a = sim.auditor()) {
        a->check_coalesce_conservation(sim.now(), buf.is_write ? length : got, landed);
      }
    }
    co_return;
  }
}

sim::Task<void> PfsClient::rpc_recover(int io_index, fault::ErrorCause cause,
                                       std::uint32_t attempt, std::uint32_t failures,
                                       sim::SimTime deadline) {
  auto& sim = machine_.simulation();
  const fault::RetryPolicy& rp = fs_.params().retry;
  ++rpc_stats_.cause_counts[static_cast<std::size_t>(cause)];
  if (auto* a = sim.auditor()) a->on_fault_observed();

  if (attempt >= rp.max_retries || sim.now() >= deadline) {
    // Budget exhausted: surface a typed error instead of hanging. The
    // terminal resolution covers every failed attempt of this request.
    ++rpc_stats_.terminal_errors;
    trace::instant(sim, trace::TraceTrack::kRpc, trace::code::kRpcGiveUp, rank_, failures,
                   static_cast<std::uint64_t>(io_index), trace::kFlagFault);
    if (auto* a = sim.auditor()) a->on_fault_terminal(failures);
    throw fault::FaultError(cause, "io" + std::to_string(io_index) + " RPC failed after " +
                                       std::to_string(failures) + " attempt(s): " +
                                       std::string(fault::to_string(cause)));
  }

  PfsServer& srv = fs_.server(io_index);
  if (cause == fault::ErrorCause::kNodeDown && srv.down()) {
    // Park until the node restarts — but never past the request deadline.
    ++rpc_stats_.down_waits;
    const sim::SimTime wait_start = sim.now();
    const bool up =
        co_await sim::wait_with_timeout(sim, srv.up_event(), deadline - sim.now());
    rpc_stats_.recovery_wait_time += sim.now() - wait_start;
    if (!up) {
      ++rpc_stats_.timeouts;
      ++rpc_stats_.cause_counts[static_cast<std::size_t>(fault::ErrorCause::kRpcTimeout)];
      ++rpc_stats_.terminal_errors;
      trace::instant(sim, trace::TraceTrack::kRpc, trace::code::kRpcGiveUp, rank_, failures,
                     static_cast<std::uint64_t>(io_index), trace::kFlagFault);
      if (auto* a = sim.auditor()) a->on_fault_terminal(failures);
      throw fault::FaultError(fault::ErrorCause::kRpcTimeout,
                              "io" + std::to_string(io_index) +
                                  " still down at request deadline");
    }
  }

  const sim::SimTime backoff = fault::backoff_delay(rp, attempt, rpc_rng_);
  rpc_stats_.backoff_time += backoff;
  ++rpc_stats_.retries;
  trace::instant(sim, trace::TraceTrack::kRpc, trace::code::kRpcRetry, rank_, attempt + 1,
                 static_cast<std::uint64_t>(io_index));
  co_await sim.delay(backoff);
}

sim::Task<ByteCount> PfsClient::transfer(PfsFileMeta& meta, FileOffset off, ByteCount len,
                                         UserBuffer buf, bool fastpath, bool charge_syscall) {
  if (charge_syscall) co_await cpu().compute(cpu().params().syscall_overhead);
  if (!buf.is_write) {
    // A read stops at EOF as the file stands once the call is in.
    if (off >= meta.size) co_return 0;
    len = std::min<ByteCount>(len, meta.size - off);
    assert(buf.out.size() >= len);
  }
  if (len == 0) co_return 0;

  // ppfs::hot — the per-call fan-out: extents, their merge and the RPC
  // tasks live in this frame's inline storage
  StripeExtents extents;
  CoalescedRequests merged;
  sim::InlineVec<sim::Task<void>, 8> parts;
  if (fs_.params().coalesce_rpcs) {
    // Extents bound for the same I/O node merge into one scatter-gather
    // RPC; the cached stripe map replaces per-operation metadata trips.
    co_await ensure_stripe_map(meta);
    meta.layout.map(off, len, extents);
    coalesce_by_io(extents, merged);
    for (const CoalescedRequest& req : merged) {
      parts.push_back(data_rpc(meta, req.extents, /*batched=*/true, off, buf, fastpath));
    }
  } else {
    meta.layout.map(off, len, extents);
    for (const IoNodeRequest& req : extents) {
      parts.push_back(data_rpc(meta, std::span(&req, 1), /*batched=*/false, off, buf, fastpath));
    }
  }
  // Propagating join: a terminal fault in one RPC surfaces here as a typed
  // error after the sibling transfers settle, instead of killing the whole
  // simulation.
  try {
    co_await sim::when_all_propagate(machine_.simulation(), parts);
  } catch (...) {
    // Pieces that landed before the fault still changed the servers' bytes.
    if (buf.is_write) invalidate_prefetched(meta.id, off, len);
    throw;
  }
  // ppfs::endhot
  if (buf.is_write) {
    meta.size = std::max<ByteCount>(meta.size, off + len);
    // Every byte this client writes to the I/O nodes passes here (a direct
    // write, an ART's iwrite, a write-back flush), so here its prefetched
    // copies of them go stale, landed or still in flight.
    invalidate_prefetched(meta.id, off, len);
  }
  co_return len;
}

sim::Task<ByteCount> PfsClient::read_at(int fd, FileOffset off, ByteCount len,
                                        std::span<std::byte> out, bool fastpath) {
  return transfer(fs_.file(fstate(fd).file), off, len, UserBuffer::reading(out), fastpath,
                  /*charge_syscall=*/true);
}

sim::Task<ByteCount> PfsClient::write_at(int fd, FileOffset off, std::span<const std::byte> in) {
  return transfer(fs_.file(fstate(fd).file), off, in.size(), UserBuffer::writing(in),
                  /*fastpath=*/true, /*charge_syscall=*/true);
}

FileOffset PfsClient::local_offset(const OpenFile& f, ByteCount len) const {
  if (f.mode == IoMode::kRecord) return f.pointer + static_cast<FileOffset>(rank_) * len;
  return f.pointer;
}

void PfsClient::advance_pointer(OpenFile& f, FileOffset off, ByteCount len,
                                ByteCount moved) const {
  switch (f.mode) {
    case IoMode::kRecord:
      f.pointer += static_cast<FileOffset>(nprocs_) * len;
      break;
    case IoMode::kGlobal:
      f.pointer = off + len;
      break;
    default:
      // For M_LOG and M_SYNC this is informational: the shared pointer is
      // authoritative.
      f.pointer = off + moved;
      break;
  }
}

sim::Task<PfsClient::Claim> PfsClient::claim_offset(OpenFile& f, ByteCount len,
                                                    bool is_write) {
  const auto ctrl = fs_.params().control_message_bytes;
  ++rpc_stats_.pointer_rpcs;
  trace::SpanGuard span(machine_.simulation(), trace::TraceTrack::kRpc,
                        trace::code::kRpcPointer, rank_, /*async=*/true, len, 0,
                        is_write ? trace::kFlagWrite : std::uint8_t{0});
  co_await machine_.mesh().send(mesh_node_, fs_.metadata_node(), ctrl);
  Claim claim;
  switch (f.mode) {
    case IoMode::kUnix:
      // Atomicity: take the per-file token for the whole transfer.
      claim.lock = co_await fs_.pointers().acquire_file_lock(f.file);
      break;
    case IoMode::kLog:
      // M_LOG is an atomic mode: the claim AND the transfer are serialized
      // first-come-first-served, like a log append.
      claim.lock = co_await fs_.pointers().acquire_file_lock(f.file);
      claim.off = co_await fs_.pointers().fetch_and_add(f.file, len);
      break;
    default:
      // M_SYNC and M_GLOBAL gang every rank on one collective call.
      claim.off = co_await fs_.collectives().arrive(f.file, rank_, nprocs_, len,
                                                    f.mode == IoMode::kGlobal);
      break;
  }
  co_await machine_.mesh().send(fs_.metadata_node(), mesh_node_, ctrl);
  if (f.mode == IoMode::kUnix) claim.off = f.pointer;  // its own pointer, under the lock
  span.end(len);
  co_return claim;
}

sim::Task<void> PfsClient::unlock_file(sim::ResourceGuard& lock) {
  lock.release();
  return machine_.mesh().send(mesh_node_, fs_.metadata_node(),
                              fs_.params().control_message_bytes);
}

sim::Task<ByteCount> PfsClient::read(int fd, std::span<std::byte> out) {
  OpenFile& f = fstate(fd);
  const ByteCount len = out.size();
  const sim::SimTime start = machine_.simulation().now();

  // --- offset resolution / coordination, per I/O mode ---
  Claim claim;
  if (resolves_locally(f.mode)) {
    claim.off = local_offset(f, len);
  } else {
    claim = co_await claim_offset(f, len, /*is_write=*/false);
  }
  const FileOffset off = claim.off;

  // --- coherence: a token-mode read first secures a read token, which
  // forces any conflicting writer to flush-before-ack ---
  if (fs_.params().write_tokens) {
    co_await acquire_token(f.file, off, off + len, TokenMode::kRead);
  }

  // --- data transfer: own dirty data first, then prefetch buffers, then
  // the normal path ---
  ByteCount got = 0;
  bool served = false;
  if (fs_.params().write_tokens && wb_covers(f.file, off, len)) {
    // Read-your-writes: the whole range is buffered dirty locally.
    co_await cpu().compute(cpu().params().syscall_overhead);
    got = wb_overlay(f.file, off, out.first(len), 0);
    ++token_stats_.wb_read_hits;
    served = true;
  }
  if (!served) {
    std::optional<ByteCount> hit;
    if (prefetcher_) hit = co_await prefetcher_->try_serve(fd, off, len, out);
    if (hit) {
      got = *hit;
    } else {
      // M_GLOBAL goes through the I/O-node buffer cache so that N nodes
      // asking for the same blocks trigger one disk access.
      const bool fast = f.fastpath && f.mode != IoMode::kGlobal;
      got = co_await read_at(fd, off, len, out, fast);
    }
    if (fs_.params().write_tokens) {
      // Partially-dirty ranges: newer buffered bytes overlay the server
      // data (or a prefetch of it), and trailing dirty bytes past EOF
      // extend the count.
      got = wb_overlay(f.file, off, out.first(len), got);
    }
  }

  advance_pointer(f, off, len, got);
  if (claim.lock.owns()) co_await unlock_file(claim.lock);
  if (prefetcher_) co_await prefetcher_->after_read(fd, off, len);

  ++stats_.reads;
  stats_.bytes_read += got;
  stats_.read_time += machine_.simulation().now() - start;
  co_return got;
}

sim::Task<ByteCount> PfsClient::write(int fd, std::span<const std::byte> in) {
  OpenFile& f = fstate(fd);
  const ByteCount len = in.size();
  const sim::SimTime start = machine_.simulation().now();

  Claim claim;
  if (resolves_locally(f.mode)) {
    claim.off = local_offset(f, len);
  } else {
    claim = co_await claim_offset(f, len, /*is_write=*/true);
  }
  const FileOffset off = claim.off;

  if (fs_.params().write_tokens) {
    // TokenWrite path: secure an exclusive byte-range token (revoking any
    // conflicting holder, who flushes first), then buffer the data dirty in
    // the local write-back cache — no data RPC until revocation, fsync, or
    // the dirty budget forces an eviction. The syscall charge comes BEFORE
    // the acquire: once acquire_token returns the insert must follow with
    // no suspension point in between, or a rival's revocation could land
    // in the gap and this client would buffer (and later flush) bytes for
    // a range it no longer owns — a torn record on the servers.
    co_await cpu().compute(cpu().params().syscall_overhead);
    co_await acquire_token(f.file, off, off + len, TokenMode::kWrite);
    wb_insert(f.file, off, in);
    ++token_stats_.wb_writes;
    co_await wb_enforce_capacity();
  } else {
    co_await write_at(fd, off, in);
  }

  advance_pointer(f, off, len, len);
  if (claim.lock.owns()) co_await unlock_file(claim.lock);

  ++stats_.writes;
  stats_.bytes_written += len;
  stats_.write_time += machine_.simulation().now() - start;
  co_return len;
}

sim::Task<AsyncHandle> PfsClient::iread(int fd, std::span<std::byte> out) {
  return post_async(fd, UserBuffer::reading(out));
}

sim::Task<AsyncHandle> PfsClient::iwrite(int fd, std::span<const std::byte> in) {
  return post_async(fd, UserBuffer::writing(in));
}

sim::Task<AsyncHandle> PfsClient::post_async(int fd, UserBuffer buf) {
  OpenFile& f = fstate(fd);
  if (!resolves_locally(f.mode)) {
    // The prototype's async path targets the locally-resolvable modes;
    // coordinated modes would need the pointer RPC inside the ART.
    throw std::logic_error(std::string(buf.is_write ? "iwrite" : "iread") +
                           ": unsupported I/O mode " + std::string(to_string(f.mode)));
  }

  // "During the setup phase, the incoming request ... is allocated an
  // internal structure": charge the ART setup cost on the user thread.
  co_await cpu().compute(cpu().params().async_setup_overhead);

  const ByteCount len = buf.is_write ? buf.in.size() : buf.out.size();
  auto req = std::make_shared<AsyncRequest>(machine_.simulation());
  req->fd = fd;
  req->offset = local_offset(f, len);
  req->length = len;
  req->out = buf.out;
  req->in = buf.in;
  req->is_write = buf.is_write;
  req->fastpath = f.fastpath;
  advance_pointer(f, req->offset, len, len);
  arts_.post(req);
  co_return req;
}

void PfsClient::invalidate_prefetched(FileId file, FileOffset off, ByteCount len) {
  if (!prefetcher_) return;
  for (const auto& [fd, f] : fds_) {
    if (f.file == file) prefetcher_->on_write(fd, off, len);
  }
}

sim::Task<ByteCount> PfsClient::iowait(AsyncHandle h) {
  if (!h) throw std::invalid_argument("iowait: null handle");
  co_return co_await arts_.wait(std::move(h));
}

// --- TokenWrite: byte-range token cache + client write-back cache ---------
//
// Everything below is dormant unless PfsParams::write_tokens is set; the
// default read/write paths never reach it, so read-only experiment digests
// are unchanged.

bool PfsClient::token_covered(FileId file, FileOffset begin, FileOffset end,
                              TokenMode mode) const {
  auto it = held_tokens_.find(file);
  if (it == held_tokens_.end()) return false;
  // Piecewise coverage sweep: a write must be covered by held write ranges;
  // a read is satisfied by either mode (a write token implies read rights).
  FileOffset cursor = begin;
  bool progressed = true;
  while (cursor < end && progressed) {
    progressed = false;
    for (const HeldRange& h : it->second) {
      if (h.begin > cursor || h.end <= cursor) continue;
      if (mode == TokenMode::kWrite && h.mode != TokenMode::kWrite) continue;
      cursor = h.end;
      progressed = true;
      break;
    }
  }
  return cursor >= end;
}

void PfsClient::hold_token(FileId file, FileOffset begin, FileOffset end, TokenMode mode) {
  // Mirror the manager's absorb step: the fresh grant replaces whatever this
  // client held over [begin, end) — including a write range a read acquire
  // just downgraded — with remainders split off.
  auto& held = held_tokens_[file];
  std::vector<HeldRange> pieces;
  for (std::size_t i = 0; i < held.size();) {
    const HeldRange h = held[i];
    if (h.end <= begin || h.begin >= end) {
      ++i;
      continue;
    }
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    if (h.begin < begin) pieces.push_back({h.begin, begin, h.mode});
    if (h.end > end) pieces.push_back({end, h.end, h.mode});
  }
  for (const HeldRange& p : pieces) held.push_back(p);
  held.push_back({begin, end, mode});
}

void PfsClient::drop_token_range(FileId file, TokenRange range) {
  auto it = held_tokens_.find(file);
  if (it == held_tokens_.end()) return;
  auto& held = it->second;
  std::vector<HeldRange> pieces;
  for (std::size_t i = 0; i < held.size();) {
    const HeldRange h = held[i];
    if (h.end <= range.begin || h.begin >= range.end) {
      ++i;
      continue;
    }
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    ++token_stats_.invalidations;
    if (h.begin < range.begin) pieces.push_back({h.begin, range.begin, h.mode});
    if (h.end > range.end) pieces.push_back({range.end, h.end, h.mode});
  }
  for (const HeldRange& p : pieces) held.push_back(p);
}

sim::Task<void> PfsClient::acquire_token(FileId file, FileOffset begin, FileOffset end,
                                         TokenMode mode) {
  if (begin >= end) co_return;
  if (token_covered(file, begin, end, mode)) {
    // The held-token cache makes repeated operations in an owned range
    // RPC-free — this is where non-conflicting writers scale.
    ++token_stats_.local_grants;
    co_return;
  }
  ++rpc_stats_.token_rpcs;
  const auto ctrl = fs_.params().control_message_bytes;
  trace::SpanGuard span(machine_.simulation(), trace::TraceTrack::kRpc,
                        trace::code::kRpcToken, rank_, /*async=*/true, end - begin,
                        static_cast<std::uint64_t>(file),
                        mode == TokenMode::kWrite ? trace::kFlagWrite : std::uint8_t{0});
  for (;;) {
    co_await machine_.mesh().send(mesh_node_, fs_.metadata_node(), ctrl);
    co_await fs_.tokens().acquire(token_client_id_, file, begin, end, mode);
    co_await machine_.mesh().send(fs_.metadata_node(), mesh_node_, ctrl);
    // A rival may have revoked this grant while our ack was still in
    // flight (its revoke callback found nothing to flush and nothing in
    // held_tokens_ to drop). Installing the range anyway would leave this
    // client convinced it owns a token the manager has already reassigned
    // — so re-check with the manager and re-acquire until the grant
    // survives the ack round-trip.
    if (fs_.tokens().holds(token_client_id_, file, begin, end, mode)) break;
  }
  hold_token(file, begin, end, mode);
  span.end(end - begin);
}

sim::Task<void> PfsClient::on_token_revoke(FileId file, TokenRange range, TokenMode mode) {
  ++token_stats_.revocations;
  if (mode == TokenMode::kWrite) {
    // Flush-before-ack: dirty data under a revoked write token must reach
    // the I/O nodes before the competing client's grant is installed.
    co_await flush_range(file, range.begin, range.end, token_stats_.revocation_flushes);
  }
  drop_token_range(file, range);
  if (auto* a = machine_.simulation().auditor()) {
    a->check_token_flush(machine_.simulation().now(),
                         wb_dirty_bytes_in(file, range.begin, range.end));
  }
}

void PfsClient::wb_insert(FileId file, FileOffset off, std::span<const std::byte> in) {
  if (in.empty()) return;
  auto& dirty = wb_[file].dirty;
  const FileOffset end = off + in.size();
  // Carve the new write's window out of any extent it overlaps, keeping
  // non-overlapped head/tail remainders, so the map stays non-overlapping.
  auto it = dirty.lower_bound(off);
  if (it != dirty.begin()) {
    const auto prev = std::prev(it);
    const FileOffset pb = prev->first;
    const FileOffset pe = pb + prev->second.size();
    if (pe > off) {
      std::vector<std::byte> tail;
      if (pe > end) {
        tail.assign(prev->second.begin() + static_cast<std::ptrdiff_t>(end - pb),
                    prev->second.end());
      }
      token_stats_.dirty_bytes -= std::min(pe, end) - off;
      prev->second.resize(static_cast<std::size_t>(off - pb));
      if (!tail.empty()) dirty.emplace(end, std::move(tail));
    }
  }
  it = dirty.lower_bound(off);
  while (it != dirty.end() && it->first < end) {
    const FileOffset b = it->first;
    const FileOffset e = b + it->second.size();
    if (e <= end) {
      token_stats_.dirty_bytes -= e - b;
      it = dirty.erase(it);
    } else {
      std::vector<std::byte> tail(it->second.begin() + static_cast<std::ptrdiff_t>(end - b),
                                  it->second.end());
      token_stats_.dirty_bytes -= end - b;
      dirty.erase(it);
      dirty.emplace(end, std::move(tail));
      break;
    }
  }
  std::vector<std::byte> bytes;
  if (!wb_spare_.empty()) {
    bytes = std::move(wb_spare_.back());
    wb_spare_.pop_back();
    wb_spare_bytes_ -= bytes.capacity();
  }
  bytes.assign(in.begin(), in.end());
  dirty.emplace(off, std::move(bytes));
  token_stats_.dirty_bytes += in.size();
  token_stats_.peak_dirty_bytes =
      std::max(token_stats_.peak_dirty_bytes, token_stats_.dirty_bytes);
}

void PfsClient::wb_recycle(std::vector<std::byte> bytes) {
  if (wb_spare_bytes_ + bytes.capacity() > fs_.params().write_back_bytes) return;
  wb_spare_bytes_ += bytes.capacity();
  wb_spare_.push_back(std::move(bytes));
}

ByteCount PfsClient::wb_dirty_bytes_in(FileId file, FileOffset begin, FileOffset end) const {
  auto f = wb_.find(file);
  if (f == wb_.end()) return 0;
  ByteCount total = 0;
  for (const auto& [b, data] : f->second.dirty) {
    const FileOffset e = b + data.size();
    if (e <= begin) continue;
    if (b >= end) break;
    total += std::min(e, end) - std::max(b, begin);
  }
  return total;
}

bool PfsClient::wb_covers(FileId file, FileOffset off, ByteCount len) const {
  if (len == 0) return false;
  auto f = wb_.find(file);
  if (f == wb_.end()) return false;
  const auto& dirty = f->second.dirty;
  FileOffset cursor = off;
  const FileOffset end = off + len;
  auto it = dirty.upper_bound(off);
  if (it != dirty.begin()) --it;
  while (cursor < end) {
    if (it == dirty.end()) return false;
    const FileOffset b = it->first;
    const FileOffset e = b + it->second.size();
    if (e <= cursor) {
      ++it;
      continue;
    }
    if (b > cursor) return false;
    cursor = e;
    ++it;
  }
  return true;
}

ByteCount PfsClient::wb_overlay(FileId file, FileOffset off, std::span<std::byte> out,
                                ByteCount base_got) const {
  auto f = wb_.find(file);
  if (f == wb_.end()) return base_got;
  const FileOffset end = off + out.size();
  ByteCount reach = base_got;
  // Extents are offset-sorted and non-overlapping: one pass both copies the
  // overlapping dirty bytes over the server data (the cache is newer) and
  // extends the contiguous-coverage watermark from `off`.
  for (const auto& [b, data] : f->second.dirty) {
    const FileOffset e = b + data.size();
    if (e <= off) continue;
    if (b >= end) break;
    const FileOffset cb = std::max(b, off);
    const FileOffset ce = std::min(e, end);
    std::memcpy(out.data() + (cb - off), data.data() + (cb - b), ce - cb);
    if (b <= off + reach && e > off + reach) {
      reach = std::min<ByteCount>(e - off, out.size());
    }
  }
  return reach;
}

sim::Task<void> PfsClient::flush_range(FileId file, FileOffset begin, FileOffset end,
                                       std::uint64_t& cause_counter) {
  auto f = wb_.find(file);
  if (f == wb_.end()) co_return;
  PfsFileMeta& meta = fs_.file(file);
  for (;;) {
    // Re-find the next dirty extent intersecting [begin, end) each pass —
    // the map can shift while the store RPCs below are in flight.
    auto& dirty = f->second.dirty;
    auto it = dirty.upper_bound(begin);
    if (it != dirty.begin()) {
      const auto prev = std::prev(it);
      if (prev->first + prev->second.size() > begin) it = prev;
    }
    if (it == dirty.end() || it->first >= end) co_return;
    const FileOffset b = it->first;
    const FileOffset e = b + it->second.size();
    const FileOffset cb = std::max(b, begin);
    const FileOffset ce = std::min(e, end);
    // Detach the flushed slice BEFORE awaiting: a concurrent writer must
    // never see the same bytes both dirty and in flight. A slice that is
    // the whole extent takes the extent's bytes without a copy; it leaves
    // no head or tail, so the moved-from vector is only erased below.
    std::vector<std::byte> data;
    if (cb == b && ce == e) {
      data = std::move(it->second);
    } else {
      data.assign(it->second.begin() + static_cast<std::ptrdiff_t>(cb - b),
                  it->second.begin() + static_cast<std::ptrdiff_t>(ce - b));
    }
    std::vector<std::byte> tail;
    if (e > ce) {
      tail.assign(it->second.begin() + static_cast<std::ptrdiff_t>(ce - b),
                  it->second.end());
    }
    if (cb > b) {
      it->second.resize(static_cast<std::size_t>(cb - b));
    } else {
      dirty.erase(it);
    }
    if (!tail.empty()) dirty.emplace(ce, std::move(tail));
    token_stats_.dirty_bytes -= ce - cb;
    ++token_stats_.flush_ops;
    ++cause_counter;
    token_stats_.flushed_bytes += ce - cb;
    co_await transfer(meta, cb, data.size(), UserBuffer::writing(data),
                      /*fastpath=*/true, /*charge_syscall=*/false);
    wb_recycle(std::move(data));
  }
}

sim::Task<void> PfsClient::wb_enforce_capacity() {
  const ByteCount budget = fs_.params().write_back_bytes;
  while (token_stats_.dirty_bytes > budget) {
    // Evict the lowest-offset extent of the lowest-id file — deterministic,
    // and sequential writers flush in file order.
    FileId victim = 0;
    bool found = false;
    for (const auto& [file, cache] : wb_) {
      if (!cache.dirty.empty()) {
        victim = file;
        found = true;
        break;
      }
    }
    if (!found) co_return;  // accounting drift guard; cannot happen
    const auto& first = *wb_[victim].dirty.begin();
    const FileOffset b = first.first;
    const FileOffset e = b + first.second.size();
    co_await flush_range(victim, b, e, token_stats_.capacity_evictions);
  }
}

sim::Task<void> PfsClient::fsync(int fd) {
  OpenFile& f = fstate(fd);
  co_await cpu().compute(cpu().params().syscall_overhead);
  if (!fs_.params().write_tokens) co_return;
  co_await flush_range(f.file, 0, std::numeric_limits<FileOffset>::max(),
                       token_stats_.fsync_flushes);
}

AsyncHandle PfsClient::post_prefetch(int fd, FileOffset off, ByteCount len,
                                     std::span<std::byte> out) {
  auto req = std::make_shared<AsyncRequest>(machine_.simulation());
  req->fd = fd;
  req->offset = off;
  req->length = len;
  req->out = out;
  req->fastpath = fstate(fd).fastpath;
  req->is_prefetch = true;
  arts_.post(req);
  return req;
}

}  // namespace ppfs::pfs
