// Cross-layer fault/recovery summary, aggregated by the workload drivers'
// run skeleton from the client RPC envelopes, RAID arrays, disks, and
// prefetch engines so one struct answers "what went wrong and how was it
// absorbed".
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace ppfs::fault {

struct FaultSummary {
  std::uint64_t injected_events = 0;      // primitive injections armed
  std::uint64_t disk_transients = 0;      // transient errors fired by disks
  std::uint64_t reconstructed_reads = 0;  // RAID reads served via parity
  std::uint64_t degraded_writes = 0;      // writes to an array with a lost member
  std::uint64_t rpc_retries = 0;          // RPC reissues after a failed attempt
  std::uint64_t rpc_down_waits = 0;       // recovery waits on a down I/O node
  std::uint64_t rpc_timeouts = 0;         // recovery waits that hit the deadline
  std::uint64_t terminal_errors = 0;      // RPCs that exhausted the budget
  std::uint64_t shed_prefetches = 0;      // prefetch buffers dropped under faults
  std::uint64_t stale_epoch_discards = 0; // prefetch buffers refused: dead crash epoch
  std::uint64_t app_errors = 0;           // FaultErrors that reached application code
  std::uint64_t node_recoveries = 0;      // cache-tier journal replays after restarts
  sim::SimTime backoff_time = 0;          // summed backoff sleeps
  sim::SimTime recovery_wait_time = 0;    // summed waits for node restart
  sim::SimTime node_recovery_time = 0;    // summed tier-journal replay time

  bool any() const {
    return injected_events || disk_transients || reconstructed_reads || degraded_writes ||
           rpc_retries || rpc_down_waits || rpc_timeouts || terminal_errors ||
           shed_prefetches || stale_epoch_discards || app_errors || node_recoveries;
  }
};

}  // namespace ppfs::fault
