// Shared helpers for the paper-reproduction benches: the banner/table
// conventions, a common --jobs/--json/--quick argument parser, and the
// JSON result emitter every bench and the ppfs_perf harness use to write
// machine-readable BENCH_*.json artifacts.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.hpp"
#include "workload/experiment.hpp"
#include "workload/open_arrival.hpp"
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

// ---------------------------------------------------------------------------
// AdaptaFetch ablation grid — shared by bench_ablation_adaptive and the
// ppfs_perf prefetch-efficiency gate so the committed BENCH_prefetch.json
// and the paper-figure bench always measure the exact same scenarios.

struct AdaptaConfig {
  const char* name;
  std::size_t depth;   // fixed readahead depth (starting depth when adaptive)
  bool adaptive;       // AdaptaFetch controller + ensemble predictor
};

inline constexpr AdaptaConfig kAdaptaConfigs[] = {
    {"fixed-1", 1, false},   // the paper's one-ahead prototype
    {"fixed-4", 4, false},   // deeper but still open-loop
    {"adaptive", 1, true},   // feedback-driven, ensemble, max depth 8
};
inline constexpr std::size_t kAdaptaConfigCount =
    sizeof kAdaptaConfigs / sizeof kAdaptaConfigs[0];

struct AdaptaRow {
  const char* name;
  workload::AccessPattern pattern;
  pfs::IoMode mode;
  sim::SimTime compute_delay;
  std::uint64_t reads_per_node;   // full run; --quick halves this
};

inline constexpr AdaptaRow kAdaptaRows[] = {
    {"sequential", workload::AccessPattern::kInterleaved, pfs::IoMode::kRecord,
     0.002, 64},
    {"strided", workload::AccessPattern::kStrided, pfs::IoMode::kAsync, 0.004, 64},
    {"listio", workload::AccessPattern::kListIo, pfs::IoMode::kAsync, 0.004, 64},
};
inline constexpr std::size_t kAdaptaRowCount = sizeof kAdaptaRows / sizeof kAdaptaRows[0];

inline workload::WorkloadSpec adapta_spec(const AdaptaRow& row, const AdaptaConfig& cfg,
                                          bool quick) {
  constexpr sim::ByteCount kReq = 64 * 1024;
  const int n = workload::MachineSpec{}.ncompute;
  const std::uint64_t reads = quick ? row.reads_per_node / 2 : row.reads_per_node;

  workload::WorkloadSpec w;
  w.mode = row.mode;
  w.pattern = row.pattern;
  w.request_size = kReq;
  w.compute_delay = row.compute_delay;
  w.prefetch = true;
  w.prefetch_cfg.depth = cfg.depth;
  w.prefetch_cfg.adaptive_depth = cfg.adaptive;
  w.prefetch_cfg.max_depth = 8;
  if (cfg.adaptive) w.prefetch_cfg.predictor = prefetch::PredictorKind::kEnsemble;

  switch (row.pattern) {
    case workload::AccessPattern::kStrided:
      w.stride = 4;
      // reads/node = file / (req * n * stride)
      w.file_size = kReq * n * w.stride * reads;
      break;
    case workload::AccessPattern::kListIo: {
      w.listio_extents = 4;
      // reads/node = (share / frame) * extents; pick share an exact frame
      // multiple so nothing is truncated.
      const sim::ByteCount frames = reads / w.listio_extents;
      w.file_size = workload::listio_frame_bytes(w) * frames * n;
      break;
    }
    default:
      w.file_size = kReq * n * reads;
      break;
  }
  return w;
}

/// The full pattern x config sweep, row-major (configs inner).
inline std::vector<exp::SweepJob> adapta_jobs(bool quick) {
  std::vector<exp::SweepJob> jobs;
  for (const AdaptaRow& row : kAdaptaRows) {
    for (const AdaptaConfig& cfg : kAdaptaConfigs) {
      jobs.push_back({std::string(row.name) + " " + cfg.name, workload::MachineSpec{},
                      adapta_spec(row, cfg, quick)});
    }
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// ScaleSim machine-size grid — shared by bench_scale and the ppfs_perf
// scale gate so the committed BENCH_scale.json and the scaling table in
// EXPERIMENTS.md always measure the exact same scenarios.

struct ScaleRow {
  const char* name;
  int ncompute;
  int nio;
  int tenants;
  std::uint64_t requests_per_client;
  bool full_only;  // skipped with --quick (the production-scale rows)
};

inline constexpr ScaleRow kScaleRows[] = {
    {"8x8", 8, 8, 4, 32, false},        // the paper's machine
    {"64x16", 64, 16, 8, 16, false},    // a full cabinet
    {"256x64", 256, 64, 16, 8, true},   // multi-cabinet
    {"1024x256", 1024, 256, 32, 8, true},  // production scale
};
inline constexpr std::size_t kScaleRowCount = sizeof kScaleRows / sizeof kScaleRows[0];

inline workload::MachineSpec scale_machine(const ScaleRow& row) {
  workload::MachineSpec m;
  m.ncompute = row.ncompute;
  m.nio = row.nio;
  return m;
}

inline workload::OpenArrivalSpec scale_spec(const ScaleRow& row, bool quick) {
  workload::OpenArrivalSpec s;
  s.tenants = row.tenants;
  s.requests_per_client = quick ? row.requests_per_client / 2 : row.requests_per_client;
  if (s.requests_per_client == 0) s.requests_per_client = 1;
  s.request_size = 64 * 1024;
  // 2 MB per tenant bounds the host-side content store (32 tenants at the
  // 1024x256 row is 64 MB) while still giving 32 distinct request offsets.
  s.tenant_file_size = 2 * 1024 * 1024;
  s.mean_interarrival = 0.05;
  s.seed = 42;
  return s;
}

}  // namespace ppfs::bench
