// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, coroutine spawn cost, resource contention,
// stripe mapping, RNG, pattern fill and verify, and content-store writes
// and reads. These guard the simulator's own performance — the paper
// benches run millions of events per sweep.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pfs/stripe.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "ufs/block_store.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_kernel.hpp"

namespace {

using ppfs::sim::Resource;
using ppfs::sim::Rng;
using ppfs::sim::Simulation;
using ppfs::sim::Task;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.call_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

// A bare queue held at a fixed depth: each iteration pops the earliest
// event and pushes one at an exponential delay (mean 1 ms) after it, so
// nearly every pending event sits at a time of its own, as in an
// event-heavy run (tenant_open keeps about 330 pending). The
// throughput row above spreads its events over 97 times, so ties carry it.
void BM_EventQueueRandomDelays(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  Rng rng(11);
  std::vector<double> delays(4096);  // a power of two: the index wraps by mask
  for (double& d : delays) d = rng.exponential(1e-3);
  ppfs::sim::EventQueue q;
  q.reserve(1024);
  std::uint64_t seq = 0;
  for (; seq < depth; ++seq) q.push(delays[seq], seq, std::coroutine_handle<>{});
  std::size_t i = 0;
  for (auto _ : state) {
    const auto e = q.pop();
    benchmark::DoNotOptimize(e.seq);
    q.push(e.t + delays[i], seq++, std::coroutine_handle<>{});
    i = (i + 1) & (delays.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRandomDelays)->Arg(50)->Arg(330)->Arg(1100);

Task<void> hop(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int p = 0; p < 100; ++p) sim.spawn(hop(sim, static_cast<int>(state.range(0))));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * state.range(0));
}
BENCHMARK(BM_CoroutineDelayHops)->Arg(10)->Arg(100);

Task<void> contend(Simulation& sim, Resource& res, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await res.acquire();
    co_await sim.delay(0.0001);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Resource res(sim, 4);
    for (int p = 0; p < 32; ++p) sim.spawn(contend(sim, res, static_cast<int>(state.range(0))));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 32 * state.range(0));
}
BENCHMARK(BM_ResourceContention)->Arg(50);

void BM_StripeMap(benchmark::State& state) {
  ppfs::pfs::StripeAttrs attrs;
  attrs.stripe_unit = 64 * 1024;
  attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  ppfs::pfs::StripeLayout layout(attrs);
  const ppfs::sim::ByteCount len = static_cast<ppfs::sim::ByteCount>(state.range(0)) * 1024;
  ppfs::sim::FileOffset off = 0;
  ppfs::pfs::StripeExtents reqs;
  for (auto _ : state) {
    layout.map(off, len, reqs);
    benchmark::DoNotOptimize(reqs.data());
    off += len;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
}
BENCHMARK(BM_StripeMap)->Arg(64)->Arg(1024)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

// Pattern rows run one kernel each, registered in main for every entry of
// detail::pattern_kernels() this CPU can run, so one host's output compares
// the kernels side by side.
void BM_PatternFill(benchmark::State& state, const ppfs::workload::detail::PatternKernel* k) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)) * 1024);
  // The start comes from run-time data and moves on by a buffer each
  // iteration, as a populate's does, so no fill can be folded or hoisted.
  auto start = static_cast<ppfs::sim::FileOffset>(state.range(0));
  for (auto _ : state) {
    k->fill(7, start, buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
    start += buf.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}

void BM_PatternVerify(benchmark::State& state, const ppfs::workload::detail::PatternKernel* k) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)) * 1024);
  const auto start = static_cast<ppfs::sim::FileOffset>(state.range(0));
  ppfs::workload::fill_pattern(7, start, buf);
  std::size_t at = 0;
  for (auto _ : state) {
    at = k->find_mismatch(7, start, buf);
    benchmark::DoNotOptimize(at);
  }
  if (at != ppfs::workload::kNoMismatch) state.SkipWithError("verify misread a clean buffer");
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}

// The content store in the populate's shape: one pass over a 128 MiB image
// of 64 KiB chunks, in 64 KiB pieces, from or into a 1 MiB pattern buffer.
constexpr std::size_t kImageBytes = std::size_t{128} << 20;
constexpr std::size_t kPieceBytes = 64 * 1024;

std::vector<std::byte> pattern_buffer() {
  std::vector<std::byte> buf(std::size_t{1} << 20);
  ppfs::workload::fill_pattern(7, 0, buf);
  return buf;
}

void write_image(ppfs::ufs::ContentStore& store, std::span<const std::byte> src) {
  for (std::size_t off = 0; off < kImageBytes; off += kPieceBytes) {
    store.write(off, src.subspan(off % src.size(), kPieceBytes));
  }
}

void BM_ContentStoreWrite(benchmark::State& state) {
  const auto src = pattern_buffer();
  {
    // One untimed pass faults the image in. Its slabs then wait on this
    // thread's free list, so each timed pass writes a fresh store into
    // touched memory, as every driver call after a thread's first does.
    ppfs::ufs::ContentArena arena;
    ppfs::ufs::ContentStore store(arena, kPieceBytes);
    write_image(store, src);
  }
  for (auto _ : state) {
    ppfs::ufs::ContentArena arena;
    ppfs::ufs::ContentStore store(arena, kPieceBytes);
    write_image(store, src);
    benchmark::DoNotOptimize(&store);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(kImageBytes));
}
BENCHMARK(BM_ContentStoreWrite);

void BM_ContentStoreRead(benchmark::State& state) {
  auto buf = pattern_buffer();
  ppfs::ufs::ContentArena arena;
  ppfs::ufs::ContentStore store(arena, kPieceBytes);
  write_image(store, buf);
  for (auto _ : state) {
    for (std::size_t off = 0; off < kImageBytes; off += kPieceBytes) {
      store.read(off, std::span(buf).subspan(off % buf.size(), kPieceBytes));
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(kImageBytes));
}
BENCHMARK(BM_ContentStoreRead);

}  // namespace

int main(int argc, char** argv) {
  for (const auto& k : ppfs::workload::detail::pattern_kernels()) {
    if (!k.runnable) continue;
    const std::string name = k.name;
    benchmark::RegisterBenchmark(("BM_PatternFill/" + name).c_str(), BM_PatternFill, &k)
        ->Arg(64)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_PatternVerify/" + name).c_str(), BM_PatternVerify, &k)
        ->Arg(64)
        ->Arg(1024);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
