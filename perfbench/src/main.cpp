// ppfs_bench: the repository benchmark's measuring program.
//
//   ppfs_bench --workload <paper_prefetch|tenant_open|checkpoint_write|all>
//              --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0
// only when every correctness check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ppfs_bench: %s\nusage: ppfs_bench --workload "
               "<paper_prefetch|tenant_open|checkpoint_write|all> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.workload != "all" &&
      std::find(kWorkloadNames.begin(), kWorkloadNames.end(), a.workload) ==
          kWorkloadNames.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool optimised_build() {
#if defined(NDEBUG)
  const std::string bt = PERFBENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo";
#else
  return false;
#endif
}

std::string provenance(const Args& a, const std::string& sizes) {
  std::string s = "{\"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"ndebug\": ";
#if defined(NDEBUG)
  s += "true";
#else
  s += "false";
#endif
  s += ", \"simcheck\": ";
#if defined(PPFS_SIMCHECK)
  s += "true";
#else
  s += "false";
#endif
  s += ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"nproc\": " +
       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"seed\": " +
       std::to_string(a.seed) + ", \"seconds\": " + std::to_string(a.seconds) +
       ", \"host_metrics_optimised\": " + (optimised_build() ? "true" : "false") +
       ", \"sizes\": " + sizes + "}";
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Correctness bookkeeping for one workload: operations attempted and
/// failed (across every driver call), plus what each failed check was.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const RunSummary& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed) problems.push_back(std::to_string(r.failed) + " failed operations");
  }
  /// A whole-run check (determinism, trace neutrality, knee): one attempt.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
};

/// Host-speed calibration. A shared host slows whole stretches of a run,
/// by up to 80% for tens of seconds, and neither a fastest nor a median
/// call can hide that. So a run also times a fixed loop of its own
/// (sorting, hashing and copying a few MB; no simulator code) before each
/// timed sample, and scales the sample by that time: to seconds on a host
/// on which the loop takes kReferenceSeconds. A slow stretch slows a sample
/// and the loop timed just before it alike; a faster simulator still shows.
/// The median of the scaled samples is the metric.
class Calibration {
 public:
  /// About the loop's fastest time on the 4-vCPU x86-64 VM the bounds were
  /// set on, so scaled seconds stay near that host's seconds.
  static constexpr double kReferenceSeconds = 0.04;

  void tick() {
    const double t0 = now_s();
    sink_ = reference_loop();
    secs_.push_back(now_s() - t0);
  }
  /// Host seconds measured after the latest tick(), in reference-host seconds.
  double scaled(double secs) const { return secs * kReferenceSeconds / secs_.back(); }
  std::size_t timings() const { return secs_.size(); }
  double fastest_timing() const { return fastest(secs_); }
  double median_timing() const { return median(secs_); }

 private:
  static std::uint64_t reference_loop() {
    std::vector<std::uint64_t> v(1 << 18);
    std::uint64_t x = 0;
    for (auto& e : v) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      e = z ^ (z >> 31);
    }
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, std::uint64_t> index;
    for (std::size_t i = 0; i < v.size(); i += 4) index.emplace(v[i], i);
    std::uint64_t sum = 0;
    for (std::uint64_t e : v) {
      const auto it = index.find(e);
      if (it != index.end()) sum += it->second;
    }
    std::vector<std::uint64_t> copy(v.size());
    for (int k = 0; k < 8; ++k) {
      std::copy(v.begin(), v.end(), copy.begin());
      sum ^= copy[static_cast<std::size_t>(k) * 4099];
    }
    return sum;
  }

  std::vector<double> secs_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop's result, so the loop is not optimised away
};

/// Repeat `call` until `budget` seconds have passed and at least `min_reps`
/// calls were made; returns the host seconds of each call. With `cal`, the
/// reference loop is timed before each call and the call's seconds are
/// scaled by it.
template <typename Fn>
std::vector<double> repeat_timed(double budget, int min_reps, Fn&& call,
                                 Calibration* cal = nullptr) {
  std::vector<double> secs;
  const double start = now_s();
  while (static_cast<int>(secs.size()) < min_reps || now_s() - start < budget) {
    if (cal) cal->tick();
    const double t0 = now_s();
    call();
    const double s = now_s() - t0;
    secs.push_back(cal ? cal->scaled(s) : s);
  }
  return secs;
}

void same_run(Tally& t, const RunSummary& first, const RunSummary& r, const char* what) {
  t.check(r.digest == first.digest && r.events == first.events &&
              r.sim_bytes == first.sim_bytes && r.sim_seconds == first.sim_seconds &&
              r.lat_sum_s == first.lat_sum_s &&
              r.lat_count == first.lat_count && r.lat_max_s == first.lat_max_s,
          std::string(what) + ": digest, event count or simulated figures differ");
}

/// The input variants one run cycles through, each built from its own seed
/// drawn from the run's seed.
std::vector<std::unique_ptr<Workload>> variants(const std::string& name, std::uint64_t seed) {
  ppfs::sim::Rng master(seed);
  std::vector<std::unique_ptr<Workload>> v;
  v.push_back(make_workload(name, master.next()));
  while (v.size() < v.front()->input_variants()) v.push_back(make_workload(name, master.next()));
  return v;
}

/// Scaled host seconds of one set-up, each entry the mean over a batch of
/// set-ups timed together. The batch doubles until it lasts
/// kSetupSampleSeconds, so a set-up of tens of microseconds
/// (checkpoint_write populates no file) is not timed on its own against a
/// clock and scheduler of the same grain. Every variant is set up at least
/// once.
std::vector<double> time_setups(const std::vector<std::unique_ptr<Workload>>& ws, double budget,
                                Calibration& cal) {
  constexpr double kSetupSampleSeconds = 0.1;
  constexpr std::size_t kMinSetupSamples = 9;
  const std::size_t n = ws.size();
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) ws[0]->setup();
    if (now_s() - t0 >= kSetupSampleSeconds) break;
    batch *= 2;
  }
  const auto min_samples = std::max(kMinSetupSamples, (n + batch - 1) / batch);
  std::size_t next = 0;
  std::vector<double> secs = repeat_timed(
      budget, static_cast<int>(min_samples),
      [&] {
        for (std::size_t i = 0; i < batch; ++i) ws[next++ % n]->setup();
      },
      &cal);
  for (double& s : secs) s /= static_cast<double>(batch);
  return secs;
}

std::vector<Metric> end_to_end(const std::vector<std::unique_ptr<Workload>>& ws,
                               double seconds, Tally& t) {
  // Every variant runs, and at least one runs again to compare.
  const std::size_t n = ws.size();
  const int min_calls = static_cast<int>(n + 1);
  Calibration cal;
  const std::vector<double> setup = time_setups(ws, 0.3 * seconds, cal);

  std::vector<RunSummary> firsts(n);
  std::size_t next = 0;
  const std::vector<double> run = repeat_timed(
      0.7 * seconds, min_calls,
      [&] {
        const std::size_t v = next++ % n;
        RunSummary r = ws[v]->run(false);
        t.add(r);
        if (next <= n) {
          firsts[v] = std::move(r);
        } else {
          same_run(t, firsts[v], r, "repeat");
        }
      },
      &cal);
  const Workload::Check extra = ws[0]->extra_check(firsts[0]);
  if (!extra.note.empty()) std::printf("%s: %s\n", ws[0]->name(), extra.note.c_str());
  t.check(extra.ok, extra.note);

  // Bandwidth and mean latency pool every operation of every variant. The
  // maximum is a single operation, so it is taken per variant and averaged
  // over the variants: the expected worst case of one input.
  RunSummary pooled;
  double lat_max_sum = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const RunSummary& r = firsts[v];
    pooled.sim_bytes += r.sim_bytes;
    pooled.sim_seconds += r.sim_seconds;
    pooled.lat_sum_s += r.lat_sum_s;
    pooled.lat_count += r.lat_count;
    lat_max_sum += r.lat_max_s;
    std::printf("%s: variant %zu digest %016llx, %llu events, %.6g MB/s, mean %.6g ms, "
                "max %.6g ms\n",
                ws[v]->name(), v, static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.events), r.sim_bw_mbs(), r.lat_mean_s() * 1e3,
                r.lat_max_s * 1e3);
  }
  std::printf("%s: %zu set-up samples, %zu driver calls over %zu input variants; scaled host s "
              "per call fastest %.4f median %.4f slowest %.4f; per set-up median %.6g\n",
              ws[0]->name(), setup.size(), run.size(), n, fastest(run), median(run),
              *std::max_element(run.begin(), run.end()), median(setup));
  std::printf("%s: reference loop timed %zu times, fastest %.4f s, median %.4f s\n",
              ws[0]->name(), cal.timings(), cal.fastest_timing(), cal.median_timing());
  const double ok =
      t.attempted ? static_cast<double>(t.attempted - t.failed) / static_cast<double>(t.attempted)
                  : 0.0;
  return {
      {"run_s", median(run), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_bw_mbs", pooled.sim_bw_mbs(), "MB/s"},
      {"sim_lat_mean_ms", pooled.lat_mean_s() * 1e3, "ms"},
      {"sim_lat_max_ms", lat_max_sum / static_cast<double>(n) * 1e3, "ms"},
      {"ok_frac", ok, "frac"},
  };
}

/// Per-layer figures come from the first variant alone, called repeatedly.
std::vector<Metric> per_layer(const Workload& w, double seconds, Tally& t) {
  RunSummary first;
  bool have_first = false;
  const double untraced_budget = (w.traceable() ? 0.35 : 0.7) * seconds;
  const std::vector<double> run = repeat_timed(untraced_budget, 2, [&] {
    RunSummary r = w.run(true);
    t.add(r);
    if (!have_first) {
      first = std::move(r);
      have_first = true;
    } else {
      same_run(t, first, r, "repeat");
    }
  });
  const double run_s = fastest(run);

  LayerValues layers = first.layers;
  double traced_s = 0;
  if (w.traceable()) {
    bool have_traced = false;
    const std::vector<double> traced = repeat_timed(0.35 * seconds, 1, [&] {
      RunSummary r = w.run_traced();
      t.add(r);
      same_run(t, first, r, "traced call");
      if (!have_traced) {
        layers = std::move(r.layers);
        have_traced = true;
      }
    });
    traced_s = fastest(traced);
  }

  const double kernel_ns = kernel_ns_per_event();
  const LayerShape shape = w.shape(first.hook);
  const CallCost mesh = mesh_send_cost(shape);
  const CallCost raid = raid_transfer_cost(shape);
  const double fill_ns = fill_ns_per_byte();
  const double verify_ns = verify_ns_per_byte();

  const double events = static_cast<double>(first.events);
  const double sends = static_cast<double>(first.hook.mesh_sends);
  const double transfers = static_cast<double>(first.hook.raid_transfers);
  layers["sim.host_ns_per_event"] = run_s * 1e9 / events;
  layers["sim.bare_ns_per_event"] = kernel_ns;
  layers["mesh.host_ns_per_send"] = mesh.ns_per_call;
  layers["disk.host_ns_per_transfer"] = raid.ns_per_call;
  layers["pattern.bytes"] = w.fill_bytes() + w.verify_bytes();
  layers["pattern.fill_ns_per_byte"] = fill_ns;
  layers["pattern.verify_ns_per_byte"] = verify_ns;
  layers["trace.overhead_frac"] = w.traceable() ? traced_s / run_s - 1.0 : 0.0;
  // Mesh sends and RAID transfers carry their own kernel events, so their
  // measured cost replaces those events' bare-kernel cost. Layers whose work
  // count the driver does not expose (no post-run hook) stay in the residual.
  const double kernel_events =
      std::max(0.0, events - sends * mesh.events_per_call - transfers * raid.events_per_call);
  const double attributed_ns = kernel_ns * kernel_events + mesh.ns_per_call * sends +
                               raid.ns_per_call * transfers + fill_ns * w.fill_bytes() +
                               verify_ns * w.verify_bytes();
  layers["host.unattributed_frac"] = 1.0 - attributed_ns / (run_s * 1e9);

  std::printf("%s: %zu driver calls (fastest %.4f s)", w.name(), run.size(), run_s);
  if (w.traceable()) std::printf(", traced %.4f s", traced_s);
  std::printf(", digest %016llx, %llu events\n", static_cast<unsigned long long>(first.digest),
              static_cast<unsigned long long>(first.events));
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    out.push_back({m.name, it == layers.end() ? 0.0 : it->second, m.unit});
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const std::vector<std::string> names =
      args.workload == "all" ? kWorkloadNames : std::vector<std::string>{args.workload};
  if (!optimised_build()) {
    std::fprintf(stderr, "ppfs_bench: WARNING: unoptimised build (" PERFBENCH_BUILD_TYPE
                         "); host metrics are not comparable\n");
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics_json;
  for (const std::string& name : names) {
    const auto ws = variants(name, args.seed);
    const std::size_t shown = args.trace ? 1 : ws.size();
    for (std::size_t v = 0; v < shown; ++v) {
      std::printf("provenance %s variant %zu: %s\n", name.c_str(), v,
                  provenance(args, ws[v]->sizes_json()).c_str());
    }
    Tally t;
    std::vector<Metric> metrics;
    try {
      metrics = args.trace ? per_layer(*ws[0], args.seconds, t) : end_to_end(ws, args.seconds, t);
    } catch (const std::exception& e) {
      t.check(false, std::string("driver error: ") + e.what());
    }
    for (const std::string& p : t.problems) {
      std::printf("%s: CHECK FAILED: %s\n", name.c_str(), p.c_str());
    }
    correct = correct && t.failed == 0;
    attempted += t.attempted;
    failed += t.failed;
    for (const Metric& m : metrics) {
      const std::string key = names.size() > 1 ? name + "/" + m.name : m.name;
      std::printf("%-18s %-28s %14.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      if (!metrics_json.empty()) metrics_json += ", ";
      metrics_json += "\"" + key + "\": {\"value\": " + json_number(m.value) +
                      ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
