// PfsClient: the client (compute-node) side of the PFS, one instance per
// application process.
//
// This is where the paper's prototype lives: "A read prefetch request is
// issued from the client-side of the Paragon OS for every read request that
// is issued by the user." The client exposes the Prefetcher hook points:
// before a read it offers the request to the prefetcher (hit = data served
// from a prefetch buffer); after a (miss) read completes it notifies the
// prefetcher, which may post a prefetch through the same ART queue user
// ireads use.
//
// Mode semantics implemented here (offset resolution per read):
//   M_UNIX    own pointer, global per-file lock held across the transfer
//   M_ASYNC   own pointer, no coordination
//   M_RECORD  fixed records in rank order: offset = ptr + rank*len;
//             afterwards ptr += nprocs*len (all nodes advance identically)
//   M_LOG     shared pointer: fetch-and-add RPC to the metadata node
//   M_SYNC    gang call: all ranks arrive, node-ordered offsets assigned
//   M_GLOBAL  gang call, same offset for everyone; data path goes through
//             the I/O-node buffer cache so N nodes trigger one disk read
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "hw/machine.hpp"
#include "pfs/async.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/io_mode.hpp"
#include "pfs/token.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace ppfs::pfs {

class PfsClient;

/// Hook interface implemented by the prefetch engine (src/prefetch). The
/// client works identically with or without one attached — attaching the
/// engine IS the paper's "with prefetching" configuration.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  /// Attempt to serve a read from prefetched data. Returns the byte count
  /// on a hit (including a hit on an in-flight prefetch, after waiting for
  /// it), or nullopt on a miss.
  virtual sim::Task<std::optional<ByteCount>> try_serve(int fd, FileOffset off, ByteCount len,
                                                        std::span<std::byte> out) = 0;
  /// Called after every user read (hit or miss) so the engine can issue
  /// the next prefetch, "totally driven by the application's access
  /// requests". Awaitable because issuing a prefetch costs user-thread CPU
  /// (the ART setup + buffer allocation) — the overhead the paper measures.
  virtual sim::Task<void> after_read(int fd, FileOffset off, ByteCount len) = 0;
  /// Called once this client's write of [off, off+len) has reached the I/O
  /// nodes (or a fault stopped it part way), once per descriptor the client
  /// holds on the written file: any prefetched copy of those bytes is stale.
  virtual void on_write(int fd, FileOffset off, ByteCount len) = 0;
  virtual void on_open(int fd) = 0;
  /// "At the time the process closes the file, all the prefetch buffers
  /// are freed."
  virtual void on_close(int fd) = 0;
};

struct ClientStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  ByteCount bytes_read = 0;
  ByteCount bytes_written = 0;
  sim::SimTime read_time = 0;   // wall time inside read() calls
  sim::SimTime write_time = 0;
};

/// Counters of the reliability envelope wrapped around every data RPC
/// (see PfsClient::data_rpc): attempts, recovery behavior, and per-cause
/// failure classification.
struct RpcStats {
  std::uint64_t attempts = 0;         // RPC attempts issued (incl. reissues)
  // Per-class RPC counters: without them the metadata node's control
  // traffic is invisible in the stats even though it is the hot spot.
  std::uint64_t data_rpcs = 0;      // read/write RPCs: one per extent (per node if coalesced)
  std::uint64_t metadata_rpcs = 0;  // metadata-node round trips (open, seek, map)
  std::uint64_t pointer_rpcs = 0;   // pointer/lock/collective claims inside read/write
  std::uint64_t token_rpcs = 0;     // byte-range token acquisitions (TokenWrite)
  std::uint64_t coalesced_rpcs = 0;     // data RPCs that were scatter-gather
  std::uint64_t coalesced_extents = 0;  // extents those RPCs carried
  std::uint64_t stripe_map_refreshes = 0;  // cached stripe-map (re)loads
  std::uint64_t retries = 0;          // reissues after a failed attempt
  std::uint64_t retried_ok = 0;       // failed attempts eventually healed by retry
  std::uint64_t down_waits = 0;       // recovery waits for a down I/O node
  std::uint64_t timeouts = 0;         // recovery waits that hit the deadline
  std::uint64_t terminal_errors = 0;  // RPCs that gave up (typed error to caller)
  std::array<std::uint64_t, fault::kErrorCauseCount> cause_counts{};
  sim::SimTime backoff_time = 0;        // summed backoff sleeps
  sim::SimTime recovery_wait_time = 0;  // summed waits for node restart

  std::uint64_t fault_signal() const {
    return retries + down_waits + timeouts + terminal_errors;
  }
};

/// TokenWrite client-side counters: the token cache and the write-back
/// cache together (pfs_execstat-style). All zero unless
/// PfsParams::write_tokens is enabled.
struct TokenCacheStats {
  std::uint64_t local_grants = 0;        // acquisitions satisfied by a held token
  std::uint64_t revocations = 0;         // revoke callbacks served
  std::uint64_t invalidations = 0;       // held ranges dropped/trimmed by revocation
  std::uint64_t wb_writes = 0;           // writes buffered dirty (no RPC issued)
  std::uint64_t wb_read_hits = 0;        // reads served wholly from own dirty data
  std::uint64_t flush_ops = 0;           // dirty extents flushed to the servers
  ByteCount flushed_bytes = 0;
  std::uint64_t revocation_flushes = 0;  // flush ops forced by a revocation
  std::uint64_t fsync_flushes = 0;       // flush ops from fsync
  std::uint64_t capacity_evictions = 0;  // flush ops forced by the dirty budget
  ByteCount dirty_bytes = 0;             // currently buffered
  ByteCount peak_dirty_bytes = 0;
};

class PfsClient : public TokenRevokeHandler {
 public:
  /// `compute_index`: which compute node this process runs on;
  /// `rank`/`nprocs`: the process's position in the parallel application.
  PfsClient(PfsFileSystem& fs, int compute_index, int rank, int nprocs);
  ~PfsClient() override;
  PfsClient(const PfsClient&) = delete;
  PfsClient& operator=(const PfsClient&) = delete;

  // --- lifecycle ---
  sim::Task<int> open(const std::string& name, IoMode mode);
  void close(int fd);
  void set_prefetcher(Prefetcher* p) { prefetcher_ = p; }

  /// Change the I/O mode mid-file ("the application can also set/modify
  /// the I/O mode during the course of reading or writing the file").
  /// A metadata operation; resets nothing but the coordination regime —
  /// the (local) file pointer keeps its position.
  sim::Task<void> set_iomode(int fd, IoMode mode);

  /// Toggle Fast Path for this fd. When off, reads go through the
  /// I/O-node buffer cache ("currently supported buffering strategies
  /// allow data buffering on the I/O nodes to be enabled or disabled").
  void set_fastpath(int fd, bool enabled) { fstate(fd).fastpath = enabled; }
  bool fastpath(int fd) const { return fstate(fd).fastpath; }

  // --- synchronous I/O ---
  /// Read out.size() bytes at the mode-resolved offset. Returns bytes read
  /// (clamped at EOF).
  sim::Task<ByteCount> read(int fd, std::span<std::byte> out);
  sim::Task<ByteCount> write(int fd, std::span<const std::byte> in);
  sim::Task<void> seek(int fd, FileOffset off);
  /// TokenWrite: flush every dirty write-back extent of this fd's file to
  /// the I/O nodes. A no-op when write tokens are off (writes are then
  /// write-through and already durable).
  sim::Task<void> fsync(int fd);

  // --- asynchronous I/O (the ART path) ---
  /// Post an asynchronous read; the pointer advances immediately, the data
  /// lands later. Only the locally-resolvable modes (M_ASYNC, M_RECORD)
  /// support asynchronous requests.
  sim::Task<AsyncHandle> iread(int fd, std::span<std::byte> out);
  /// Asynchronous write through the same ART machinery. The caller's
  /// buffer must stay alive and unchanged until iowait returns: the server
  /// reads it when it serves the write (again on a retry).
  sim::Task<AsyncHandle> iwrite(int fd, std::span<const std::byte> in);
  sim::Task<ByteCount> iowait(AsyncHandle h);

  // --- positioned raw access (no pointer movement; prefetch uses this) ---
  sim::Task<ByteCount> read_at(int fd, FileOffset off, ByteCount len,
                               std::span<std::byte> out, bool fastpath);

  /// Post a positioned read through the ART queue without touching file
  /// pointers — exactly how the prototype issued prefetches.
  AsyncHandle post_prefetch(int fd, FileOffset off, ByteCount len, std::span<std::byte> out);

  // --- introspection ---
  FileOffset tell(int fd) const;
  IoMode mode_of(int fd) const;
  ByteCount file_size(int fd) const;
  /// Where this rank's NEXT synchronous read of `len` bytes will fall,
  /// under the fd's I/O mode. Exact for M_UNIX/M_ASYNC/M_RECORD; for the
  /// shared-pointer modes it is a best-effort guess (and the paper's
  /// prototype only targeted M_RECORD).
  FileOffset next_read_offset(int fd, ByteCount len) const;
  bool next_offset_predictable(int fd) const;

  int rank() const noexcept { return rank_; }
  int nprocs() const noexcept { return nprocs_; }
  const ClientStats& stats() const noexcept { return stats_; }
  const RpcStats& rpc_stats() const noexcept { return rpc_stats_; }
  const TokenCacheStats& token_stats() const noexcept { return token_stats_; }

  // --- TokenRevokeHandler (called by the metadata node's token manager) ---
  hw::NodeId token_node() const override { return mesh_node_; }
  /// Flush-before-ack: flushes every dirty byte inside `range`, drops the
  /// cached token, and only then returns (the return is the ack).
  sim::Task<void> on_token_revoke(FileId file, TokenRange range, TokenMode mode) override;
  ArtQueue& arts() noexcept { return arts_; }
  hw::Machine& machine() noexcept { return machine_; }
  PfsFileSystem& filesystem() noexcept { return fs_; }
  hw::NodeCpu& cpu() { return machine_.cpu(mesh_node_); }

 private:
  struct OpenFile {
    FileId file = 0;
    IoMode mode = IoMode::kUnix;
    FileOffset pointer = 0;
    bool fastpath = true;
  };

  OpenFile& fstate(int fd);
  const OpenFile& fstate(int fd) const;

  /// One control-message round trip to the metadata node.
  sim::Task<void> metadata_rpc();

  /// The caller's buffer for one transfer: a read fills `out`, a write
  /// sends `in`.
  struct UserBuffer {
    std::span<std::byte> out;
    std::span<const std::byte> in;
    bool is_write = false;

    static UserBuffer reading(std::span<std::byte> out) { return {out, {}, false}; }
    static UserBuffer writing(std::span<const std::byte> in) { return {{}, in, true}; }
  };

  /// Where a read() or write() lands in the file, and the per-file lock
  /// M_UNIX and M_LOG hold across the transfer.
  struct Claim {
    FileOffset off = 0;
    sim::ResourceGuard lock;
  };

  /// Offset of a request of `len` bytes from the local pointer alone
  /// (M_RECORD: this rank's record of the round).
  FileOffset local_offset(const OpenFile& f, ByteCount len) const;
  /// Move the fd's pointer past a request at `off` that asked for `len`
  /// bytes and moved `moved`.
  void advance_pointer(OpenFile& f, FileOffset off, ByteCount len, ByteCount moved) const;
  /// The coordinated modes' claim: one pointer RPC to the metadata node.
  /// M_UNIX takes the per-file lock, M_LOG takes it and fetch-and-adds the
  /// shared pointer, M_SYNC and M_GLOBAL gang every rank on the collective.
  sim::Task<Claim> claim_offset(OpenFile& f, ByteCount len, bool is_write);
  /// Drop a claim's file lock and tell the metadata node.
  sim::Task<void> unlock_file(sim::ResourceGuard& lock);
  /// iread/iwrite: resolve the offset, advance the pointer, post to an ART.
  sim::Task<AsyncHandle> post_async(int fd, UserBuffer buf);
  /// Prefetcher::on_write for every descriptor this client holds on `file`.
  void invalidate_prefetched(FileId file, FileOffset off, ByteCount len);

  /// Move [off, off + len) between `buf` (whose first byte is file offset
  /// `off`) and the I/O nodes: map the range onto stripe extents, merge
  /// them per I/O node when coalescing, and run one data RPC per group
  /// concurrently. A read is clamped at EOF; a write extends the file
  /// size. Returns the bytes moved. Flushes skip the syscall charge.
  sim::Task<ByteCount> transfer(PfsFileMeta& meta, FileOffset off, ByteCount len,
                                UserBuffer buf, bool fastpath, bool charge_syscall);

  /// One data RPC inside the reliability envelope: bounded retries with
  /// backoff, recovery waits on a down node, and a per-request deadline;
  /// exhausting the budget throws FaultError. `extents` all live on one
  /// I/O node and `base` is the file offset of `buf`'s first byte.
  /// Unbatched, the RPC moves one extent (PfsServer::serve); batched
  /// (PfsParams::coalesce_rpcs), every extent rides one scatter-gather RPC
  /// (PfsServer::serve_batch) — one control round-trip, one server
  /// request-handling charge, one data message.
  sim::Task<void> data_rpc(PfsFileMeta& meta, std::span<const IoNodeRequest> extents,
                           bool batched, FileOffset base, UserBuffer buf, bool fastpath);

  /// Per-file stripe-map cache (coalesced path only): the first operation
  /// on a file — and the first after any crash/restore bumps the mount's
  /// topology epoch — pays one metadata round-trip to (re)load the map;
  /// every later operation resolves extents locally instead of paying a
  /// per-operation metadata/pointer trip.
  sim::Task<void> ensure_stripe_map(const PfsFileMeta& meta);

  /// Shared failure path of the envelope: account the caught fault, wait
  /// out a down node (bounded by `deadline`), back off before the reissue
  /// — or give up by throwing a terminal FaultError. `failures` counts the
  /// failed attempts of this request so far (including the current one).
  sim::Task<void> rpc_recover(int io_index, fault::ErrorCause cause, std::uint32_t attempt,
                              std::uint32_t failures, sim::SimTime deadline);

  sim::Task<ByteCount> write_at(int fd, FileOffset off, std::span<const std::byte> in);

  // --- TokenWrite internals (all dormant unless params().write_tokens) ---

  /// A token range this client believes it holds (its token cache). Held
  /// ranges make repeated operations in an owned range RPC-free; the
  /// manager shrinks them back through on_token_revoke.
  struct HeldRange {
    FileOffset begin = 0;
    FileOffset end = 0;
    TokenMode mode = TokenMode::kRead;
  };
  /// Per-file write-back cache: non-overlapping dirty extents keyed by
  /// start offset. Data stays here until revocation, fsync, or the
  /// per-client dirty budget forces a flush.
  struct WriteBack {
    std::map<FileOffset, std::vector<std::byte>> dirty;
  };

  /// Acquire (or locally confirm) a token for [begin, end). One control
  /// round trip + manager call on a miss; pure bookkeeping on a hit.
  sim::Task<void> acquire_token(FileId file, FileOffset begin, FileOffset end,
                                TokenMode mode);
  bool token_covered(FileId file, FileOffset begin, FileOffset end, TokenMode mode) const;
  void hold_token(FileId file, FileOffset begin, FileOffset end, TokenMode mode);
  /// Drop held ranges intersecting `range` (invalidate), splitting
  /// remainders.
  void drop_token_range(FileId file, TokenRange range);

  /// Flush dirty extents intersecting [begin, end), lowest offset first;
  /// each flush op also bumps `cause_counter`.
  sim::Task<void> flush_range(FileId file, FileOffset begin, FileOffset end,
                              std::uint64_t& cause_counter);
  /// Flush lowest-offset extents (any file) until dirty_bytes fits the
  /// write-back budget again.
  sim::Task<void> wb_enforce_capacity();
  void wb_insert(FileId file, FileOffset off, std::span<const std::byte> in);
  /// Keep a flushed extent's vector for wb_insert to fill again, unless
  /// the spares would then hold more than the write-back budget.
  void wb_recycle(std::vector<std::byte> bytes);
  ByteCount wb_dirty_bytes_in(FileId file, FileOffset begin, FileOffset end) const;
  bool wb_covers(FileId file, FileOffset off, ByteCount len) const;
  /// Copy dirty bytes overlapping [off, off+out.size()) into `out`;
  /// returns the contiguous coverage from `off` given `base_got` bytes
  /// already valid from the normal read path.
  ByteCount wb_overlay(FileId file, FileOffset off, std::span<std::byte> out,
                       ByteCount base_got) const;

  PfsFileSystem& fs_;
  hw::Machine& machine_;
  int compute_index_;
  hw::NodeId mesh_node_;
  int rank_;
  int nprocs_;
  Prefetcher* prefetcher_ = nullptr;
  ArtQueue arts_;
  std::map<int, OpenFile> fds_;
  std::map<FileId, std::uint64_t> stripe_map_epoch_;  // file -> topology epoch cached at
  int next_fd_ = 3;
  ClientStats stats_;
  RpcStats rpc_stats_;
  TokenCacheStats token_stats_;
  std::map<FileId, std::vector<HeldRange>> held_tokens_;
  std::map<FileId, WriteBack> wb_;
  // Flushed extents' vectors, refilled by wb_insert before it allocates:
  // a checkpoint's every write would otherwise take a fresh heap block,
  // which glibc may trim and fault in again per round. Their capacities
  // sum to wb_spare_bytes_, at most the write-back budget.
  std::vector<std::vector<std::byte>> wb_spare_;
  ByteCount wb_spare_bytes_ = 0;
  int token_client_id_ = -1;  // registered with the manager when tokens are on
  sim::Rng rpc_rng_;  // deterministic per-rank backoff-jitter stream
};

}  // namespace ppfs::pfs
