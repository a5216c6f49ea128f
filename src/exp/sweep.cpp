#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>

#include "workload/report.hpp"

namespace ppfs::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

SweepOutcome run_one(const SweepJob& job) {
  SweepOutcome out;
  out.label = job.label;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    out.result = workload::Experiment(job.machine).run(job.work);
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown error";
  }
  out.seconds = seconds_since(t0);
  return out;
}

/// The sweep's scheduling primitive: run fn(0..n-1) on up to `workers`
/// threads via an atomic claim counter. Each index is visited exactly
/// once; with workers <= 1 the calls happen in order on the calling
/// thread (the serial digest baseline). fn must be safe to call
/// concurrently for distinct indices and must not throw — per-index
/// errors go into the slot it writes, like SweepOutcome::error does.
void for_each_index(std::size_t n, int workers, const std::function<void(std::size_t)>& fn) {
  const int effective =
      static_cast<int>(std::min<std::size_t>(workers < 1 ? 1 : static_cast<std::size_t>(workers), n));
  if (effective <= 1) {
    // Serial reference path: index order on the calling thread. This is
    // the digest baseline every parallel run must reproduce exactly.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Work-stealing-free pool: each worker claims the next unstarted index
  // through the atomic counter; per-index output slots are disjoint, so
  // the merge is lock-free and submission-ordered no matter which worker
  // finishes first.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(effective));
  for (int w = 0; w < effective; ++w) pool.emplace_back(work);
  for (auto& t : pool) t.join();
}

}  // namespace

bool SweepReport::all_ok() const noexcept {
  for (const auto& o : outcomes) {
    if (!o.error.empty()) return false;
  }
  return true;
}

SweepReport SweepRunner::run(const std::vector<SweepJob>& batch) const {
  SweepReport report;
  report.jobs = jobs_;
  report.outcomes.resize(batch.size());
  const auto t0 = std::chrono::steady_clock::now();
  for_each_index(batch.size(), jobs_,
                 [&](std::size_t i) { report.outcomes[i] = run_one(batch[i]); });
  report.seconds = seconds_since(t0);
  return report;
}

SweepReport run_sweep(const std::vector<SweepJob>& batch, int workers) {
  return SweepRunner(workers).run(batch);
}

std::vector<SweepJob> paper_table_jobs(const workload::MachineSpec& machine,
                                       const workload::WorkloadSpec& base, int rounds) {
  const sim::ByteCount sizes[] = {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
                                  1024 * 1024};
  std::vector<SweepJob> jobs;
  jobs.reserve(std::size(sizes) * 2);
  for (const sim::ByteCount req : sizes) {
    for (const bool prefetch : {false, true}) {
      SweepJob job;
      job.machine = machine;
      job.work = base;
      job.work.request_size = req;
      job.work.file_size = std::max<sim::ByteCount>(
          req * static_cast<sim::ByteCount>(machine.ncompute) * rounds,
          4 * 1024 * 1024);
      job.work.prefetch = prefetch;
      job.label =
          workload::fmt_bytes(req) + (prefetch ? " prefetch" : " no-prefetch");
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace ppfs::exp
