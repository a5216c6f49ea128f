// TokenWrite write workloads: concurrent multi-client write paths with
// byte-range tokens and coherent client write-back caches.
//
// Three shapes, each stressing a different edge of the token protocol:
//
//   kCheckpoint        N writers dump round-stamped records (own slots, or
//                      all the same record with --conflicting), fsync, then
//                      cross-read a peer's record and verify every byte.
//                      Non-conflicting ranges never serialize — this is the
//                      write-scaling configuration the perf gate measures.
//   kProducerConsumer  client 0 writes a round-stamped record and NEVER
//                      fsyncs; a barrier releases the consumers, whose read-
//                      token acquisition revokes the producer's write token
//                      — the flush-before-ack is the only thing that can
//                      make their byte-exact verification pass.
//   kMixed             multi-tenant open-arrival traffic with a write
//                      fraction (rides run_open_arrival), fsync-on-close.
//                      It honors request_size, write_fraction, tenants,
//                      requests_per_client, seed and the machine; writers,
//                      rounds and compute_delay do not apply, and a fault
//                      plan is refused.
//
// All three force PfsParams::write_tokens on. Deterministic: same spec,
// same digest (ppfs_run --selfcheck works on write workloads too).
#pragma once

#include "workload/experiment.hpp"
#include "workload/open_arrival.hpp"

namespace ppfs::workload {

enum class WriteWorkloadKind { kCheckpoint, kProducerConsumer, kMixed };

const char* to_string(WriteWorkloadKind k) noexcept;

struct WriteWorkloadSpec {
  WriteWorkloadKind kind = WriteWorkloadKind::kCheckpoint;
  MachineSpec machine;
  /// Concurrent clients. kCheckpoint: all write. kProducerConsumer: one
  /// producer + (writers - 1) consumers. kMixed: open-arrival clients come
  /// from machine.ncompute instead.
  int writers = 4;
  ByteCount request_size = 64 * 1024;
  /// Records each writer produces (checkpoint) / handoff rounds (p/c).
  std::uint64_t rounds = 8;
  /// kCheckpoint: every writer targets the SAME record each round, so every
  /// write conflicts and the token manager serializes them via revocation.
  bool conflicting = false;
  /// Byte-exact read-back verification (sequential consistency check).
  bool verify = true;
  /// kCheckpoint: fsync after each round's write (off = rely purely on
  /// revocation flushes, like kProducerConsumer always does).
  bool fsync_each_round = true;
  SimTime compute_delay = 0;
  /// kCheckpoint/kProducerConsumer only: armed at the start of the rounds.
  fault::FaultPlan faults;
  /// kMixed knobs (forwarded into OpenArrivalSpec).
  double write_fraction = 0.5;
  int tenants = 4;
  std::uint64_t requests_per_client = 32;
  std::uint64_t seed = 1;
};

/// Run one write workload on a freshly-built machine; write_tokens is
/// forced on. Returns the standard result record with the token/write
/// block populated (read fields cover the verification reads;
/// read_latencies holds the write-call latencies). `sink` (may be null)
/// traces the whole run. Throws std::invalid_argument on a bad spec,
/// including kMixed with a non-empty fault plan.
ExperimentResult run_write_workload(const WriteWorkloadSpec& spec,
                                    trace::TraceSink* sink = nullptr);

}  // namespace ppfs::workload
