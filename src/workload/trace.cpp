#include "workload/trace.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "workload/rig.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::ByteCount;
using sim::FileOffset;
using sim::SimTime;
using sim::Task;

/// The pattern the replay file is populated with.
constexpr std::uint64_t kTraceTag = 1;

/// Smallest file covering every access of the trace (pointer semantics
/// simulated per mode; dynamic-claim modes get the sum of all reads).
ByteCount required_file_size(const AccessTrace& t) {
  std::vector<FileOffset> ptr(t.ranks, 0);
  FileOffset max_end = 0;
  ByteCount claim_total = 0;
  for (const TraceOp& op : t.ops) {
    if (op.rank < 0 || op.rank >= t.ranks) {
      throw std::invalid_argument("trace: rank out of range");
    }
    if (op.kind == TraceOp::Kind::kSeek) {
      ptr[op.rank] = op.offset;
      continue;
    }
    claim_total += op.length;
    FileOffset off = ptr[op.rank];
    if (t.mode == IoMode::kRecord) {
      off += static_cast<FileOffset>(op.rank) * op.length;
      ptr[op.rank] += static_cast<FileOffset>(t.ranks) * op.length;
    } else {
      ptr[op.rank] += op.length;
    }
    max_end = std::max<FileOffset>(max_end, off + op.length);
  }
  if (t.mode == IoMode::kLog || t.mode == IoMode::kSync) {
    max_end = std::max<FileOffset>(max_end, claim_total);
  }
  return max_end;
}

}  // namespace

std::string AccessTrace::serialize() const {
  std::ostringstream out;
  out << "# ppfs-trace v1\n";
  out << "mode " << pfs::to_string(mode) << "\n";
  out << "ranks " << ranks << "\n";
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kSeek) {
      out << op.rank << " seek " << op.offset << "\n";
    } else {
      out << op.rank << " read " << op.length << " " << op.think << "\n";
    }
  }
  return out.str();
}

AccessTrace AccessTrace::parse(const std::string& text) {
  AccessTrace t;
  std::istringstream in(text);
  std::string line;
  bool saw_mode = false, saw_ranks = false;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument("trace line " + std::to_string(lineno) + ": " + why);
    };
    if (first == "mode") {
      std::string m;
      if (!(ls >> m)) fail("missing mode name");
      bool found = false;
      for (auto mm : pfs::all_io_modes()) {
        if (m == pfs::to_string(mm)) {
          t.mode = mm;
          found = true;
        }
      }
      if (!found) fail("unknown mode " + m);
      saw_mode = true;
    } else if (first == "ranks") {
      if (!(ls >> t.ranks) || t.ranks <= 0) fail("bad rank count");
      saw_ranks = true;
    } else {
      TraceOp op;
      try {
        op.rank = std::stoi(first);
      } catch (const std::exception&) {
        fail("expected rank number, got '" + first + "'");
      }
      std::string verb;
      if (!(ls >> verb)) fail("missing op verb");
      if (verb == "read") {
        op.kind = TraceOp::Kind::kRead;
        if (!(ls >> op.length)) fail("read: missing length");
        if (!(ls >> op.think)) op.think = 0;
        if (op.length == 0) fail("read: zero length");
      } else if (verb == "seek") {
        op.kind = TraceOp::Kind::kSeek;
        if (!(ls >> op.offset)) fail("seek: missing offset");
      } else {
        fail("unknown op '" + verb + "'");
      }
      t.ops.push_back(op);
    }
  }
  if (!saw_mode || !saw_ranks) {
    throw std::invalid_argument("trace: missing 'mode' or 'ranks' header");
  }
  for (const TraceOp& op : t.ops) {
    if (op.rank >= t.ranks) throw std::invalid_argument("trace: rank out of range");
  }
  return t;
}

ByteCount AccessTrace::max_bytes_per_rank() const {
  std::vector<ByteCount> per(ranks, 0);
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kRead) per[op.rank] += op.length;
  }
  return *std::max_element(per.begin(), per.end());
}

AccessTrace AccessTrace::sequential(IoMode mode, int ranks, int reads_per_rank,
                                    ByteCount len, SimTime think) {
  AccessTrace t;
  t.mode = mode;
  t.ranks = ranks;
  for (int k = 0; k < reads_per_rank; ++k) {
    for (int r = 0; r < ranks; ++r) {
      t.ops.push_back(TraceOp{r, TraceOp::Kind::kRead, len, 0, think});
    }
  }
  return t;
}

AccessTrace AccessTrace::strided(int ranks, int reads_per_rank, ByteCount len,
                                 ByteCount stride, SimTime think) {
  AccessTrace t;
  t.mode = IoMode::kAsync;
  t.ranks = ranks;
  for (int k = 0; k < reads_per_rank; ++k) {
    for (int r = 0; r < ranks; ++r) {
      const FileOffset pos =
          static_cast<FileOffset>(r) * reads_per_rank * stride + static_cast<FileOffset>(k) * stride;
      t.ops.push_back(TraceOp{r, TraceOp::Kind::kSeek, 0, pos, 0});
      t.ops.push_back(TraceOp{r, TraceOp::Kind::kRead, len, 0, think});
    }
  }
  return t;
}

ExperimentResult replay_trace(const MachineSpec& mspec, const AccessTrace& trace,
                              bool prefetch_on, prefetch::PrefetchConfig prefetch_cfg,
                              bool verify) {
  if (trace.ranks > mspec.ncompute) {
    throw std::invalid_argument("replay_trace: trace has more ranks than compute nodes");
  }
  const ByteCount file_size = required_file_size(trace);
  if (file_size == 0) throw std::invalid_argument("replay_trace: empty trace");

  detail::Rig rig(mspec, detail::Topology::kParagon, trace.ranks, nullptr);
  rig.fs().create("trace");
  if (prefetch_on) rig.attach_prefetchers(prefetch_cfg);
  std::vector<Task<void>> loads;
  loads.push_back(detail::populate(rig.client(0), "trace", kTraceTag, file_size));
  rig.run_populate(std::move(loads), "replay_trace");
  rig.start_phase({});

  // One plan per rank: its ops in trace order.
  std::vector<detail::ReadPlan> plans(trace.ranks);
  for (detail::ReadPlan& p : plans) {
    p.file = "trace";
    p.mode = trace.mode;
    p.tag = kTraceTag;
  }
  for (const TraceOp& op : trace.ops) plans[op.rank].ops.push_back(op);

  ExperimentResult res;
  res.spec.mode = trace.mode;
  res.spec.prefetch = prefetch_on;
  res.spec.prefetch_cfg = prefetch_cfg;
  res.spec.verify = verify;
  rig.run_reads(plans, verify, res, "replay_trace");
  return res;
}

}  // namespace ppfs::workload
