// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// TokenWrite integration tests: byte-range token manager, client-side
// write-back caches, coherence across concurrent writers, and the write
// workloads built on top of them.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/token.hpp"
#include "sim/simulation.hpp"
#include "sim/when_all.hpp"
#include "test_util.hpp"
#include "workload/write_workload.hpp"

namespace ppfs::pfs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;

constexpr ByteCount kSU = 64 * 1024;

/// A simulated Paragon with the token protocol switched on.
struct TokenBed {
  explicit TokenBed(int ncompute = 4, int nio = 4, ByteCount wb_bytes = 1024 * 1024)
      : machine(sim, hw::MachineConfig::paragon(ncompute, nio)),
        fs(machine, make_params(wb_bytes)) {
    for (int r = 0; r < ncompute; ++r) {
      clients.push_back(std::make_unique<PfsClient>(fs, r, r, ncompute));
    }
  }

  static PfsParams make_params(ByteCount wb_bytes) {
    PfsParams p;
    p.write_tokens = true;
    p.write_back_bytes = wb_bytes;
    return p;
  }

  Simulation sim;
  hw::Machine machine;
  PfsFileSystem fs;
  std::vector<std::unique_ptr<PfsClient>> clients;
};

// ---------------------------------------------------------------------------
// Write-back cache basics
// ---------------------------------------------------------------------------

TEST(TokenWrite, WriteBuffersDirtyNoDataRpc) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    auto data = make_pattern(7, 0, kSU);
    co_await c.write(fd, data);
    c.close(fd);
  }(tb));
  const auto& ts = tb.clients[0]->token_stats();
  EXPECT_EQ(ts.wb_writes, 1u);
  EXPECT_EQ(ts.dirty_bytes, kSU);
  EXPECT_EQ(ts.flush_ops, 0u);
  // One token RPC, zero data RPCs: the write went to the local cache only.
  EXPECT_EQ(tb.clients[0]->rpc_stats().token_rpcs, 1u);
  EXPECT_EQ(tb.clients[0]->rpc_stats().data_rpcs, 0u);
  EXPECT_EQ(tb.fs.tokens().stats().grants, 1u);
}

TEST(TokenWrite, ReadYourOwnWritesFromDirtyCache) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    auto data = make_pattern(9, 0, kSU);
    co_await c.write(fd, data);
    std::vector<std::byte> got(kSU);
    co_await c.seek(fd, 0);
    const ByteCount n = co_await c.read(fd, got);
    EXPECT_EQ(n, kSU);
    EXPECT_TRUE(check_pattern(got, 9, 0));
    c.close(fd);
  }(tb));
  EXPECT_EQ(tb.clients[0]->token_stats().wb_read_hits, 1u);
  // The read never touched the data servers.
  EXPECT_EQ(tb.clients[0]->rpc_stats().data_rpcs, 0u);
}

TEST(TokenWrite, OverlayMergesDirtyOverServerData) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    // Flushed base: pattern 1 over two stripe units.
    auto base = make_pattern(1, 0, 2 * kSU);
    co_await c.write(fd, base);
    co_await c.fsync(fd);
    // Dirty overlay: pattern 2 over the middle, unflushed.
    auto mid = make_pattern(2, kSU / 2, kSU);
    co_await c.seek(fd, kSU / 2);
    co_await c.write(fd, mid);
    // A full-range read must see base / overlay / base.
    std::vector<std::byte> got(2 * kSU);
    co_await c.seek(fd, 0);
    const ByteCount n = co_await c.read(fd, got);
    EXPECT_EQ(n, 2 * kSU);
    EXPECT_TRUE(check_pattern(std::span(got).first(kSU / 2), 1, 0));
    EXPECT_TRUE(check_pattern(std::span(got).subspan(kSU / 2, kSU), 2, kSU / 2));
    EXPECT_TRUE(check_pattern(std::span(got).subspan(kSU / 2 + kSU), 1, kSU / 2 + kSU));
    c.close(fd);
  }(tb));
}

TEST(TokenWrite, FsyncFlushesAllDirty) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    auto data = make_pattern(3, 0, 3 * kSU);
    co_await c.write(fd, data);
    co_await c.fsync(fd);
    c.close(fd);
  }(tb));
  const auto& ts = tb.clients[0]->token_stats();
  EXPECT_EQ(ts.dirty_bytes, 0u);
  EXPECT_EQ(ts.fsync_flushes, ts.flush_ops);
  EXPECT_GE(ts.flush_ops, 1u);
  EXPECT_EQ(ts.flushed_bytes, 3 * kSU);
  // fsync flushed the data but kept the token: a second write to the same
  // range is a local grant, no new RPC.
  EXPECT_GT(tb.clients[0]->rpc_stats().data_rpcs, 0u);
}

TEST(TokenWrite, RepeatedOwnedRangeOpsAreLocalGrants) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    auto data = make_pattern(4, 0, kSU);
    for (int i = 0; i < 5; ++i) {
      co_await c.seek(fd, 0);
      co_await c.write(fd, data);
    }
    c.close(fd);
  }(tb));
  EXPECT_EQ(tb.clients[0]->rpc_stats().token_rpcs, 1u);
  EXPECT_EQ(tb.clients[0]->token_stats().local_grants, 4u);
}

TEST(TokenWrite, CapacityEvictionFlushesOldestExtent) {
  // 128K dirty budget, write 4 x 64K: capacity eviction must kick in.
  TokenBed tb(4, 4, /*wb_bytes=*/2 * kSU);
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    for (int i = 0; i < 4; ++i) {
      auto data = make_pattern(5, ByteCount(i) * kSU, kSU);
      co_await c.seek(fd, ByteCount(i) * kSU);
      co_await c.write(fd, data);
    }
    c.close(fd);
  }(tb));
  const auto& ts = tb.clients[0]->token_stats();
  EXPECT_GE(ts.capacity_evictions, 2u);
  EXPECT_LE(ts.dirty_bytes, 2 * kSU);
  EXPECT_EQ(ts.peak_dirty_bytes, 2 * kSU + kSU);  // insert peaks before eviction
}

// ---------------------------------------------------------------------------
// Cross-client coherence
// ---------------------------------------------------------------------------

TEST(TokenWrite, ReaderRevokesWriterAndSeesFlushedBytes) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& w = *t.clients[0];
    auto& r = *t.clients[1];
    const int wfd = co_await w.open("f", IoMode::kAsync);
    auto data = make_pattern(11, 0, kSU);
    co_await w.write(wfd, data);  // buffered dirty, never fsynced
    const int rfd = co_await r.open("f", IoMode::kAsync);
    std::vector<std::byte> got(kSU);
    const ByteCount n = co_await r.read(rfd, got);
    EXPECT_EQ(n, kSU);
    EXPECT_TRUE(check_pattern(got, 11, 0));
    w.close(wfd);
    r.close(rfd);
  }(tb));
  // The read acquire revoked the writer's token; flush-before-ack pushed
  // the dirty bytes out before the reader was granted.
  EXPECT_EQ(tb.clients[0]->token_stats().revocations, 1u);
  EXPECT_EQ(tb.clients[0]->token_stats().revocation_flushes, 1u);
  EXPECT_GE(tb.clients[0]->token_stats().invalidations, 1u);
  EXPECT_EQ(tb.clients[0]->token_stats().dirty_bytes, 0u);
}

TEST(TokenWrite, ConflictingWritersSerializeWholeRecords) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    // Both writers target the SAME record concurrently; afterwards the
    // record must match exactly one writer's pattern in full.
    auto writer = [](PfsClient& c, std::uint64_t tag) -> Task<void> {
      const int fd = co_await c.open("f", IoMode::kAsync);
      auto data = make_pattern(tag, 0, kSU);
      co_await c.write(fd, data);
      co_await c.fsync(fd);
      c.close(fd);
    };
    std::vector<Task<void>> procs;
    procs.push_back(writer(*t.clients[0], 21));
    procs.push_back(writer(*t.clients[1], 22));
    co_await sim::when_all(t.sim, std::move(procs));
    std::vector<std::byte> got(kSU);
    const int fd = co_await t.clients[2]->open("f", IoMode::kAsync);
    const ByteCount n = co_await t.clients[2]->read(fd, got);
    EXPECT_EQ(n, kSU);
    const bool is21 = check_pattern(got, 21, 0);
    const bool is22 = check_pattern(got, 22, 0);
    EXPECT_TRUE(is21 || is22) << "torn record: neither writer's bytes survived intact";
    t.clients[2]->close(fd);
  }(tb));
}

TEST(TokenWrite, PartialOverlapSplitsTokens) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& a = *t.clients[0];
    auto& b = *t.clients[1];
    const int afd = co_await a.open("f", IoMode::kAsync);
    auto wide = make_pattern(31, 0, 4 * kSU);
    co_await a.write(afd, wide);  // holds write token [0, 256K)
    // b writes the middle stripe unit only: a's token must split, a keeps
    // the non-overlapping head and tail.
    const int bfd = co_await b.open("f", IoMode::kAsync);
    co_await b.seek(bfd, kSU);
    auto mid = make_pattern(32, kSU, kSU);
    co_await b.write(bfd, mid);
    co_await a.fsync(afd);  // flush a's surviving dirty head + tail
    co_await b.fsync(bfd);
    std::vector<std::byte> got(4 * kSU);
    const int cfd = co_await t.clients[2]->open("f", IoMode::kAsync);
    const ByteCount n = co_await t.clients[2]->read(cfd, got);
    EXPECT_EQ(n, 4 * kSU);
    EXPECT_TRUE(check_pattern(std::span(got).first(kSU), 31, 0));
    EXPECT_TRUE(check_pattern(std::span(got).subspan(kSU, kSU), 32, kSU));
    EXPECT_TRUE(check_pattern(std::span(got).subspan(2 * kSU), 31, 2 * kSU));
    a.close(afd);
    b.close(bfd);
    t.clients[2]->close(cfd);
  }(tb));
  EXPECT_GE(tb.fs.tokens().stats().splits, 1u);
  // a's revocation flushed only the overlapped slice before the ack.
  EXPECT_GE(tb.clients[0]->token_stats().revocation_flushes, 1u);
}

TEST(TokenWrite, RevokedHeadFlushKeepsTheTailDirty) {
  // a buffers [0, 256K); b's write of [0, 64K) revokes only the head. The
  // head is sliced out of a's dirty extent and flushed; the rest stays
  // dirty until a's fsync. Only a flush of a whole extent takes its bytes
  // without a copy.
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& a = *t.clients[0];
    auto& b = *t.clients[1];
    const int afd = co_await a.open("f", IoMode::kAsync);
    auto wide = make_pattern(41, 0, 4 * kSU);
    co_await a.write(afd, wide);
    const int bfd = co_await b.open("f", IoMode::kAsync);
    auto head = make_pattern(42, 0, kSU);
    co_await b.write(bfd, head);
    EXPECT_EQ(a.token_stats().flushed_bytes, kSU);
    EXPECT_EQ(a.token_stats().dirty_bytes, 3 * kSU);
    co_await a.fsync(afd);
    co_await b.fsync(bfd);
    std::vector<std::byte> got(4 * kSU);
    const int cfd = co_await t.clients[2]->open("f", IoMode::kAsync);
    EXPECT_EQ(co_await t.clients[2]->read(cfd, got), 4 * kSU);
    EXPECT_TRUE(check_pattern(std::span(got).first(kSU), 42, 0));
    EXPECT_TRUE(check_pattern(std::span(got).subspan(kSU), 41, kSU));
    a.close(afd);
    b.close(bfd);
    t.clients[2]->close(cfd);
  }(tb));
  const TokenCacheStats& a = tb.clients[0]->token_stats();
  EXPECT_EQ(a.flush_ops, 2u);  // the revoked head, then the tail at fsync
  EXPECT_EQ(a.flushed_bytes, 4 * kSU);
  EXPECT_EQ(a.dirty_bytes, 0u);
}

TEST(TokenWrite, SharedReadTokensDontRevokeEachOther) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& w = *t.clients[0];
    const int wfd = co_await w.open("f", IoMode::kAsync);
    auto data = make_pattern(41, 0, 2 * kSU);
    co_await w.write(wfd, data);
    co_await w.fsync(wfd);
    w.close(wfd);
    // Two readers over the same range: read tokens are compatible.
    auto reader = [](PfsClient& c) -> Task<void> {
      const int fd = co_await c.open("f", IoMode::kAsync);
      std::vector<std::byte> got(2 * kSU);
      const ByteCount n = co_await c.read(fd, got);
      EXPECT_EQ(n, 2 * kSU);
      EXPECT_TRUE(check_pattern(got, 41, 0));
      c.close(fd);
    };
    std::vector<Task<void>> procs;
    procs.push_back(reader(*t.clients[1]));
    procs.push_back(reader(*t.clients[2]));
    co_await sim::when_all(t.sim, std::move(procs));
  }(tb));
  EXPECT_EQ(tb.clients[1]->token_stats().revocations, 0u);
  EXPECT_EQ(tb.clients[2]->token_stats().revocations, 0u);
}

TEST(TokenWrite, ManagerStateMatchesClientHoldings) {
  TokenBed tb;
  tb.fs.create("f");
  run_task(tb.sim, [](TokenBed& t) -> Task<void> {
    auto& c = *t.clients[0];
    const int fd = co_await c.open("f", IoMode::kAsync);
    auto data = make_pattern(51, 0, kSU);
    co_await c.write(fd, data);
    co_await c.fsync(fd);
    c.close(fd);
  }(tb));
  const FileId f = tb.fs.lookup("f")->id;
  EXPECT_EQ(tb.fs.tokens().granted_bytes(f, TokenMode::kWrite), kSU);
  EXPECT_EQ(tb.fs.tokens().write_granted_bytes(), kSU);
  EXPECT_EQ(tb.fs.tokens().grant_count(f), 1u);
}

TEST(TokenWrite, DefaultOffKeepsCountersZero) {
  Simulation sim;
  hw::Machine machine(sim, hw::MachineConfig::paragon(4, 4));
  PfsFileSystem fs(machine, PfsParams{});  // write_tokens defaults off
  PfsClient c(fs, 0, 0, 1);
  fs.create("f");
  run_task(sim, [](PfsClient& cl) -> Task<void> {
    const int fd = co_await cl.open("f", IoMode::kAsync);
    auto data = make_pattern(61, 0, kSU);
    co_await cl.write(fd, data);
    co_await cl.fsync(fd);  // no-op flush in write-through mode
    std::vector<std::byte> got(kSU);
    co_await cl.seek(fd, 0);
    const ByteCount n = co_await cl.read(fd, got);
    EXPECT_EQ(n, kSU);
    EXPECT_TRUE(check_pattern(got, 61, 0));
    cl.close(fd);
  }(c));
  EXPECT_EQ(c.rpc_stats().token_rpcs, 0u);
  EXPECT_EQ(c.token_stats().wb_writes, 0u);
  EXPECT_EQ(c.token_stats().flush_ops, 0u);
  EXPECT_EQ(fs.tokens().stats().acquires, 0u);
}

}  // namespace
}  // namespace ppfs::pfs

// ---------------------------------------------------------------------------
// Write workloads (workload layer, full stack)
// ---------------------------------------------------------------------------

namespace ppfs::workload {
namespace {

TEST(WriteWorkload, CheckpointOwnSlotsVerifiesClean) {
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kCheckpoint;
  spec.writers = 4;
  spec.rounds = 4;
  const auto r = run_write_workload(spec);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.writes, 16u);
  EXPECT_EQ(r.bytes_written, 16u * spec.request_size);
  EXPECT_EQ(r.reads, 16u);  // each record cross-checked by a peer
  EXPECT_GT(r.token_rpcs, 0u);
  EXPECT_GT(r.wb_writes, 0u);
  EXPECT_GT(r.wb_flush_ops, 0u);
  // Every record and peer read-back is one stripe unit per I/O node: one
  // data RPC per extent.
  EXPECT_EQ(r.data_rpcs, 32u);
}

TEST(WriteWorkload, CheckpointConflictingIsSequentiallyConsistent) {
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kCheckpoint;
  spec.writers = 4;
  spec.rounds = 4;
  spec.conflicting = true;
  const auto r = run_write_workload(spec);
  EXPECT_EQ(r.verify_failures, 0u) << "a conflicting-range record was torn";
  EXPECT_GT(r.token_revocations, 0u);
}

TEST(WriteWorkload, ProducerConsumerCoherenceViaRevocation) {
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kProducerConsumer;
  spec.writers = 2;
  spec.rounds = 6;
  const auto r = run_write_workload(spec);
  EXPECT_EQ(r.verify_failures, 0u);
  // The producer never fsyncs: every record the consumer saw was pushed
  // out by a revocation flush, not a volunteer flush.
  EXPECT_EQ(r.wb_revocation_flushes, 6u);
  EXPECT_EQ(r.wb_fsync_flushes, 0u);
  EXPECT_EQ(r.reads, 6u);
}

TEST(WriteWorkload, MixedTenancyRunsClean) {
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kMixed;
  spec.write_fraction = 0.5;
  spec.tenants = 4;
  spec.requests_per_client = 16;
  const auto r = run_write_workload(spec);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_GT(r.writes, 0u);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.token_rpcs, 0u);
  // The stack counters reach mixed runs too.
  EXPECT_GT(r.data_rpcs, 0u);
  EXPECT_FALSE(r.top_links.empty());
}

TEST(WriteWorkload, MixedRefusesFaultPlan) {
  // Open-arrival tenants have no fault plan to arm, so a plan given to the
  // mixed workload would change nothing; the driver refuses it instead.
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kMixed;
  spec.faults = fault::parse_plan("crash:io=1,at=0.1,outage=0.15");
  EXPECT_THROW((void)run_write_workload(spec), std::invalid_argument);
}

TEST(WriteWorkload, DeterministicDigests) {
  WriteWorkloadSpec spec;
  spec.kind = WriteWorkloadKind::kCheckpoint;
  spec.writers = 8;
  spec.rounds = 3;
  spec.machine.ncompute = 8;
  const auto a = run_write_workload(spec);
  const auto b = run_write_workload(spec);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

TEST(WriteWorkload, ConflictingDiffersFromOwnSlots) {
  WriteWorkloadSpec a;
  a.kind = WriteWorkloadKind::kCheckpoint;
  a.writers = 4;
  a.rounds = 4;
  WriteWorkloadSpec b = a;
  b.conflicting = true;
  EXPECT_NE(run_write_workload(a).digest, run_write_workload(b).digest);
}

TEST(WriteWorkload, RejectsBadSpecs) {
  WriteWorkloadSpec spec;
  spec.writers = 0;
  EXPECT_THROW((void)run_write_workload(spec), std::invalid_argument);
  spec.writers = 1;
  spec.kind = WriteWorkloadKind::kProducerConsumer;
  EXPECT_THROW((void)run_write_workload(spec), std::invalid_argument);
  spec.writers = 2;
  spec.request_size = 0;
  EXPECT_THROW((void)run_write_workload(spec), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::workload
