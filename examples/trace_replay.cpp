// Replay an application I/O trace against different PFS configurations.
//
//   $ ./trace_replay                 # demo: generate, save, replay a trace
//   $ ./trace_replay mytrace.txt    # replay a trace file
//
// Demonstrates the trace workflow a downstream user follows: capture a
// workload once (or synthesize it), then ask "what would prefetching /
// SCSI-16 / a different predictor have done for this exact access stream?"
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/report.hpp"
#include "workload/trace.hpp"

using namespace ppfs;
using namespace ppfs::workload;

namespace {

void report(const char* label, const ExperimentResult& r) {
  std::printf("%-34s %8.2f MB/s observed  (%llu reads, %s, wall %s)",
              label, r.observed_read_bw_mbs, (unsigned long long)r.reads,
              fmt_bytes(r.total_bytes).c_str(), fmt_time(r.wall_elapsed).c_str());
  if (r.prefetch.issued) {
    std::printf("  [pf hit %.0f%%]", r.prefetch.hit_ratio() * 100);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  AccessTrace trace;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      trace = AccessTrace::parse(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace parse error: %s\n", e.what());
      return 1;
    }
    std::printf("loaded trace: %zu ops, %d ranks, mode %s\n\n", trace.ops.size(),
                trace.ranks, std::string(pfs::to_string(trace.mode)).c_str());
  } else {
    // Synthesize the paper's balanced M_RECORD workload as a trace and
    // show the round trip through the text format.
    trace = AccessTrace::sequential(pfs::IoMode::kRecord, 8, 16, 64 * 1024, 0.03);
    const std::string path = "demo_trace.txt";
    std::ofstream(path) << trace.serialize();
    std::printf("synthesized a balanced M_RECORD trace (%zu ops) -> %s\n\n",
                trace.ops.size(), path.c_str());
  }

  MachineSpec base;
  report("baseline (SCSI-8, no prefetch):", replay_trace(base, trace, false));
  report("with prefetching:", replay_trace(base, trace, true));

  prefetch::PrefetchConfig deep;
  deep.depth = 4;
  report("prefetch depth 4:", replay_trace(base, trace, true, deep));

  MachineSpec fast = base;
  fast.raid = hw::RaidParams::scsi16();
  report("SCSI-16, no prefetch:", replay_trace(fast, trace, false));
  report("SCSI-16 + prefetching:", replay_trace(fast, trace, true));
  return 0;
}
