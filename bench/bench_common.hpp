// Shared helpers for the paper-reproduction benches: the banner/table
// conventions, a common --jobs/--json/--quick argument parser, the JSON
// emitter that writes the machine-readable BENCH_*.json artifacts with
// their build provenance, and the gate and grid runner of the gated
// benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_commit.hpp"  // PPFS_BENCH_COMMIT, from bench/bench_commit.cmake
#include "exp/sweep.hpp"
#include "workload/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/report.hpp"

namespace ppfs::bench {

using workload::Experiment;
using workload::ExperimentResult;
using workload::MachineSpec;
using workload::TextTable;
using workload::WorkloadSpec;
using workload::fmt_bytes;
using workload::fmt_double;
using workload::fmt_percent;
using workload::fmt_time;

// ---------------------------------------------------------------------------
// JSON result emitter. Deliberately tiny: insertion-ordered objects,
// locale-independent numbers, and nothing the BENCH_*.json artifacts do
// not need.

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// An insertion-ordered JSON object builder.
class JsonObject {
 public:
  JsonObject& field(std::string_view k, const std::string& v) {
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += '"';
    return raw(k, quoted);
  }
  JsonObject& field(std::string_view k, const char* v) {
    return field(k, std::string(v));
  }
  JsonObject& field(std::string_view k, double v) { return raw(k, json_number(v)); }
  JsonObject& field(std::string_view k, int v) { return raw(k, std::to_string(v)); }
  JsonObject& field(std::string_view k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& field(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
  /// Pre-rendered JSON (a nested object or array).
  JsonObject& raw(std::string_view k, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += '"';
    body_ += json_escape(k);
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A JSON array of pre-rendered values.
class JsonArray {
 public:
  JsonArray& add(const JsonObject& o) { return add_raw(o.str()); }
  JsonArray& add_raw(const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += json;
    return *this;
  }
  std::string str() const { return "[" + body_ + "]"; }

 private:
  std::string body_;
};

/// Hex digest string as printed by ppfs_run ("%016llx").
inline std::string fmt_digest(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

/// One BENCH_*.json row for a sweep outcome.
inline JsonObject outcome_json(const exp::SweepOutcome& o) {
  JsonObject row;
  row.field("label", o.label);
  if (!o.ok()) {
    row.field("error", o.error);
    return row;
  }
  row.field("read_bw_mbs", o.result.observed_read_bw_mbs)
      .field("wall_bw_mbs", o.result.wall_bw_mbs)
      .field("events", o.result.events_dispatched)
      .field("digest", fmt_digest(o.result.digest))
      .field("seconds", o.seconds);
  return row;
}

/// A BENCH_*.json document: the bench's name, then the commit, build and
/// host that measured it. A host-time figure from a Debug or SimCheck
/// build, or from a one-core machine, says nothing about a Release build on
/// four cores; nor does one from a CPU that runs another pattern kernel
/// (`pattern_kernel`: word, avx2 or avx512). PPFS_BUILD_TYPE and
/// PPFS_BENCH_COMMIT (`git describe` at build time, "unknown" outside a
/// checkout) come from bench/CMakeLists.txt.
inline JsonObject bench_doc(std::string_view bench, bool quick) {
#if defined(NDEBUG)
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
#if defined(PPFS_SIMCHECK)
  constexpr bool simcheck = true;
#else
  constexpr bool simcheck = false;
#endif
#if defined(__clang__)
  constexpr const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  constexpr const char* compiler = "gcc " __VERSION__;
#else
  constexpr const char* compiler = "unknown";
#endif
  JsonObject doc;
  doc.field("bench", std::string(bench))
      .field("commit", PPFS_BENCH_COMMIT)
      .field("build_type", PPFS_BUILD_TYPE)
      .field("ndebug", ndebug)
      .field("simcheck", simcheck)
      .field("compiler", compiler)
      .field("hardware_concurrency", static_cast<int>(std::thread::hardware_concurrency()))
      .field("pattern_kernel", workload::pattern_kernel_name())
      .field("quick", quick);
  return doc;
}

/// Write `text` to `path`; exits the bench with an error on failure so CI
/// never uploads a half-written artifact.
inline void write_json_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// Shared bench command line: every paper-figure bench accepts
//   --jobs <n>   sweep worker threads (default 1 — serial, bit-identical)
//   --json <p>   also write the results as a JSON artifact
//   --quick      shrink the workload for smoke runs

struct BenchArgs {
  int jobs = 1;
  std::string json_path;
  bool quick = false;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--jobs" && i + 1 < argc) {
      a.jobs = std::atoi(argv[++i]);
      if (a.jobs < 1) a.jobs = 1;
    } else if (s == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (s == "--quick") {
      a.quick = true;
    } else {
      std::cerr << "unknown bench flag: " << s
                << " (supported: --jobs <n>, --json <path>, --quick)\n";
      std::exit(2);
    }
  }
  return a;
}

/// Print sweep errors (if any) and return the bench exit code.
inline int finish_sweep(const exp::SweepReport& report) {
  for (const auto& o : report.outcomes) {
    if (!o.ok()) std::cerr << "error: " << o.label << ": " << o.error << "\n";
  }
  return report.all_ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Gates. A gated bench exits nonzero when one of its claims fails. Checks
// (digests agree between runs, every byte verifies, every row completes)
// hold on any grid and fail every run. Floors and ceilings (a speedup, a
// ratio, a host rate) are set for the full grid, so a bench whose --quick
// grid falls short of them prints them there as not gated.

class Gate {
 public:
  /// `bounds_gated`: this run's grid is one the floors and ceilings are
  /// set for.
  explicit Gate(bool bounds_gated) : bounds_gated_(bounds_gated) {}

  void check(const std::string& what, bool ok) {
    std::printf("gate  %-50s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
    JsonObject g;
    g.field("name", what).field("gated", true).field("pass", ok);
    gates_.add(g);
    pass_ = pass_ && ok;
  }
  void at_least(const std::string& what, double value, double floor) {
    bound(what, value, ">=", floor, value >= floor);
  }
  void at_most(const std::string& what, double value, double ceiling) {
    bound(what, value, "<=", ceiling, value <= ceiling);
  }

  int exit_code() const noexcept { return pass_ ? 0 : 1; }

  /// Every gate with its value, limit and verdict, then the overall verdict.
  void stamp(JsonObject& doc) const {
    doc.raw("gates", gates_.str()).field("gate_pass", pass_);
  }

 private:
  void bound(const std::string& what, double value, const char* op, double limit, bool ok) {
    std::printf("gate  %-50s %10.4g %s %-8.4g %s\n", what.c_str(), value, op, limit,
                !bounds_gated_ ? "not gated (--quick)" : ok ? "PASS" : "FAIL");
    JsonObject g;
    g.field("name", what)
        .field("value", value)
        .field("op", op)
        .field("limit", limit)
        .field("gated", bounds_gated_)
        .field("pass", ok);
    gates_.add(g);
    if (bounds_gated_) pass_ = pass_ && ok;
  }

  bool bounds_gated_;
  bool pass_ = true;
  JsonArray gates_;
};

// ---------------------------------------------------------------------------
// Grid runs. run_grid runs a bench's scenario grid serially and, for
// --jobs N > 1, again on N workers: every scenario's digest and event
// count must agree between the two (the SweepRunner determinism
// contract). The speedup is timed at min(N, cores) workers, since workers
// beyond the cores only timeslice and their speedup measures nothing. The
// serial pass runs on a fresh thread, as each parallel worker does, so both
// passes pay the first touch of a thread's content slabs and FrameArena
// once per thread: on the calling thread it would reuse what earlier work
// left there.

struct GridRun {
  exp::SweepReport serial;  // tables and rows read this run's outcomes
  int requested_jobs = 1;
  double parallel_seconds = 0;  // at requested_jobs
  int effective_jobs = 1;       // min(requested_jobs, cores)
  double timed_seconds = 0;     // at effective_jobs

  double speedup() const { return timed_seconds > 0 ? serial.seconds / timed_seconds : 0; }

  void stamp(JsonObject& doc) const {
    doc.field("scenarios", static_cast<std::uint64_t>(serial.outcomes.size()))
        .field("serial_wall_seconds", serial.seconds)
        .field("requested_jobs", requested_jobs)
        .field("parallel_wall_seconds", parallel_seconds)
        .field("effective_jobs", effective_jobs)
        .field("timed_wall_seconds", timed_seconds)
        .field("speedup", speedup());
  }
};

inline GridRun run_grid(const std::vector<exp::SweepJob>& jobs, int workers, Gate& gate) {
  GridRun g;
  g.requested_jobs = std::max(1, workers);
  g.effective_jobs = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                                g.requested_jobs);
  std::exception_ptr serial_failed;
  std::thread([&] {
    try {
      g.serial = exp::run_sweep(jobs, 1);
    } catch (...) {
      serial_failed = std::current_exception();
    }
  }).join();
  if (serial_failed) std::rethrow_exception(serial_failed);
  g.parallel_seconds = g.timed_seconds = g.serial.seconds;
  if (g.requested_jobs > 1) {
    const auto parallel = exp::run_sweep(jobs, g.requested_jobs);
    bool identical = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& s = g.serial.outcomes[i];
      const auto& p = parallel.outcomes[i];
      if (s.ok() != p.ok() || s.result.digest != p.result.digest ||
          s.result.events_dispatched != p.result.events_dispatched) {
        std::fprintf(stderr, "error: %s: serial %s/%llu events, %d workers %s/%llu events\n",
                     s.label.c_str(), fmt_digest(s.result.digest).c_str(),
                     static_cast<unsigned long long>(s.result.events_dispatched),
                     g.requested_jobs, fmt_digest(p.result.digest).c_str(),
                     static_cast<unsigned long long>(p.result.events_dispatched));
        identical = false;
      }
    }
    gate.check("digests and events, serial vs " + std::to_string(g.requested_jobs) +
                   " workers",
               identical);
    g.parallel_seconds = parallel.seconds;
    if (g.effective_jobs == g.requested_jobs) {
      g.timed_seconds = parallel.seconds;
    } else if (g.effective_jobs > 1) {
      g.timed_seconds = exp::run_sweep(jobs, g.effective_jobs).seconds;
    }
  }
  std::printf("sweep: %zu scenarios, serial %.3fs, %d worker%s %.3fs (%.2fx%s)\n",
              jobs.size(), g.serial.seconds, g.effective_jobs,
              g.effective_jobs == 1 ? "" : "s", g.timed_seconds, g.speedup(),
              g.effective_jobs < g.requested_jobs ? ", jobs clamped to cores" : "");
  return g;
}

inline void banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::cout << "=============================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Machine: 8 compute + 8 I/O nodes, SCSI-8 RAID per I/O node,\n"
            << "         64KB file system blocks (simulated Paragon)\n"
            << "Expected shape: " << expectation << "\n"
            << "=============================================================\n";
}

/// The per-node request sizes the paper's tables sweep.
inline std::vector<sim::ByteCount> paper_request_sizes() {
  return {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024};
}

/// A file size giving `rounds` collective rounds for this request size on
/// `ncompute` nodes, with a floor so small requests still do real work.
inline sim::ByteCount file_size_for(sim::ByteCount request, int ncompute, int rounds = 8) {
  const sim::ByteCount sz = request * static_cast<sim::ByteCount>(ncompute) * rounds;
  return std::max<sim::ByteCount>(sz, 4 * 1024 * 1024);
}

}  // namespace ppfs::bench
