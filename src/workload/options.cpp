#include "workload/options.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace ppfs::workload {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

// stoi/stoull throw std::invalid_argument on junk and std::out_of_range on
// overflow, and stoull silently wraps a leading '-' to a huge unsigned
// value — so every numeric flag funnels through these wrappers, which turn
// all three failure modes into a CliError naming the offending flag.
int parse_int(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw CliError(flag, "bad integer: '" + text + "'");
  }
}

// For count-valued flags (nodes, depths, block counts): an integer >= min.
int parse_count(const std::string& flag, const std::string& text, int min) {
  const int v = parse_int(flag, text);
  if (v < min) {
    throw CliError(flag, "must be >= " + std::to_string(min) + ", got " + text);
  }
  return v;
}

double parse_seconds(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || v < 0) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw CliError(flag, "bad duration: '" + text + "'");
  }
}

sim::ByteCount parse_size_for(const std::string& flag, const std::string& text) {
  if (text.empty()) throw CliError(flag, "empty size");
  if (text.find('-') != std::string::npos) {
    // stoull would happily wrap "-1" to 2^64-1; sizes are never negative.
    throw CliError(flag, "negative size: '" + text + "'");
  }
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    throw CliError(flag, "bad size: '" + text + "'");
  }
  if (used == 0) throw CliError(flag, "bad size: '" + text + "'");
  const std::string suffix = upper(text.substr(used));
  unsigned long long mult = 1;
  if (suffix == "" || suffix == "B") {
    mult = 1;
  } else if (suffix == "K" || suffix == "KB") {
    mult = 1024ull;
  } else if (suffix == "M" || suffix == "MB") {
    mult = 1024ull * 1024ull;
  } else if (suffix == "G" || suffix == "GB") {
    mult = 1024ull * 1024ull * 1024ull;
  } else {
    throw CliError(flag, "bad size suffix: '" + text + "'");
  }
  if (mult != 1 && v > ~0ull / mult) {
    throw CliError(flag, "size overflows: '" + text + "'");
  }
  return v * mult;
}

AccessPattern parse_pattern(const std::string& text) {
  if (text == "interleaved") return AccessPattern::kInterleaved;
  if (text == "own-region") return AccessPattern::kOwnRegion;
  if (text == "strided") return AccessPattern::kStrided;
  if (text == "listio" || text == "list-io") return AccessPattern::kListIo;
  throw CliError("--pattern", "unknown pattern: '" + text +
                                  "' (interleaved|own-region|strided|listio)");
}

prefetch::PredictorKind parse_predictor(const std::string& text) {
  if (text == "mode-aware") return prefetch::PredictorKind::kModeAware;
  if (text == "sequential") return prefetch::PredictorKind::kSequential;
  if (text == "strided") return prefetch::PredictorKind::kStrided;
  if (text == "list-io" || text == "listio") return prefetch::PredictorKind::kListIo;
  if (text == "ensemble") return prefetch::PredictorKind::kEnsemble;
  throw CliError("--predictor",
                 "unknown predictor: '" + text +
                     "' (mode-aware|sequential|strided|list-io|ensemble)");
}

WriteWorkloadKind parse_write_workload(const std::string& text) {
  if (text == "checkpoint") return WriteWorkloadKind::kCheckpoint;
  if (text == "producer-consumer" || text == "pc") {
    return WriteWorkloadKind::kProducerConsumer;
  }
  if (text == "mixed") return WriteWorkloadKind::kMixed;
  throw CliError("--write-workload", "unknown kind: '" + text +
                                         "' (checkpoint|producer-consumer|mixed)");
}

}  // namespace

sim::ByteCount parse_size(const std::string& text) { return parse_size_for("", text); }

pfs::IoMode parse_mode(const std::string& text) {
  std::string t = upper(text);
  if (t.rfind("M_", 0) != 0) t = "M_" + t;
  for (auto m : pfs::all_io_modes()) {
    if (t == pfs::to_string(m)) return m;
  }
  throw std::invalid_argument("unknown I/O mode: '" + text + "'");
}

std::string cli_usage() {
  return R"(ppfs_run — run one PFS workload on the simulated Paragon and report
the paper's metrics.

  --mode <M_UNIX|M_ASYNC|M_SYNC|M_RECORD|M_GLOBAL|M_LOG>   (default M_RECORD)
  --request <size>      per-node request size, e.g. 64K     (default 64K)
  --file <size>         total file size, e.g. 8M            (default 8M)
  --delay <seconds>     compute delay between reads         (default 0)
  --prefetch            enable the client prefetch engine
  --depth <n>           prefetch depth                      (default 1)
  --prefetch-adaptive   AdaptaFetch: ensemble predictor + feedback-driven
                        readahead depth (implies --prefetch; deterministic,
                        see --prefetch-seed)
  --prefetch-max-depth <n>  adaptive depth ceiling          (default 8)
  --prefetch-seed <n>   phases the adaptive feedback windows (default 1)
  --predictor <name>    mode-aware|sequential|strided|list-io|ensemble
                        (default mode-aware)
  --compare             run with AND without prefetch, print both
  --selfcheck           run each configuration twice; fail on determinism-
                        digest divergence (SimCheck)
  --sweep               run the paper-table grid (5 request sizes, prefetch
                        off/on) as one sweep; honors --mode/--delay/...
  --jobs <n>            worker threads for --sweep (default 1; per-scenario
                        digests are identical for any worker count)
  --ncompute <n>        compute nodes                       (default 8)
  --nio <n>             I/O nodes                           (default 8)
  --sunit <size>        stripe unit                         (default 64K)
  --sgroup <n>          stripe group width (first n I/O nodes; 0 = all)
  --scsi16              SCSI-16 I/O nodes (4x bus bandwidth)
  --elevator            LOOK elevator disk scheduling
  --mesh-mtu <size>     segment mesh messages above this size into pipelined
                        packets (0 = circuit transfers, the default)
  --coalesce            merge same-I/O-node extents into one scatter-gather
                        RPC and cache the stripe map per file
  --server-batch        servers sort concurrently queued extents into one
                        elevator sweep per disk pass
  --buffered            disable Fast Path (reads via server caches)
  --readahead <n>       server-side readahead blocks        (default 0)
  --cache-tier          persistent second-tier block cache on each I/O node
                        (crash-safe journal; survives --faults crash events)
  --cache-tier-blocks <n>  tier capacity in blocks (implies --cache-tier;
                        default 1024)
  --separate-files      each node reads a private file
  --own-region          M_UNIX/M_ASYNC scan own region instead of interleave
  --pattern <p>         M_UNIX/M_ASYNC access pattern: interleaved (default),
                        own-region, strided (constant-stride sampling scan),
                        listio (gapped vector-of-extents frames)
  --stride <n>          rounds skipped by --pattern strided  (default 4)
  --listio-extents <n>  extents per frame for --pattern listio, 1..8
                        (default 4)
  --write-workload <k>  run a TokenWrite write workload instead of a read
                        workload: checkpoint (N writers, own slots or
                        --conflicting, fsync + cross-client read-back),
                        producer-consumer (no fsync; revocation flushes are
                        the only coherence), mixed (open-arrival tenants
                        with a --write-fraction of writes). checkpoint and
                        producer-consumer honor --writers/--write-rounds/
                        --request/--delay/--faults; mixed honors --request,
                        --write-fraction and the machine flags, not
                        --writers/--write-rounds/--delay/--faults. All three
                        take --selfcheck and --trace
  --writers <n>         concurrent write-workload clients    (default 4)
  --write-rounds <n>    records per writer / handoff rounds  (default 8)
  --conflicting         checkpoint: all writers target the SAME record, so
                        every write conflicts and serializes via revocation
  --no-round-fsync      checkpoint: skip the per-round fsync (coherence then
                        rides purely on revocation flushes)
  --write-fraction <f>  mixed: fraction of requests that write (default 0.5)
  --write-tokens        enable byte-range write tokens + client write-back
                        caches on the mount (write workloads force this on)
  --wb-bytes <size>     per-client write-back dirty budget   (default 1M)
  --verify              check every byte against the written pattern
  --faults <plan>       arm a fault plan at the start of the read phase.
                        ';'-separated events "kind:key=val,...":
                          crash:io=1,at=0.1,outage=0.15
                          diskfail:io=0,member=1,at=0.05[,restore=0.2]
                          transient:io=0,from=0,until=0.3[,member=2][,max=4]
                          slow:io=0,from=0,until=0.3[,factor=4]
                          link:io=0,from=0,until=0.3[,factor=3]
                        or chaos mode: "seed=42[,events=5][,horizon=0.5]"
  --trace <path>        write a Chrome trace_event JSON of the run (open in
                        Perfetto / chrome://tracing); single-run mode only.
                        Tracing never changes the schedule: determinism
                        digests are bit-identical with it on or off
  --trace-last <n>      keep only the last n trace records (binary ring);
                        dumped to <path>.last.bin on fault give-up
  --help                this text
)";
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions opt;
  int sgroup = 0;
  std::optional<sim::ByteCount> sunit;

  // Accept "--flag=value" as well as "--flag value": split at the first '='
  // of any "--" argument. Values themselves may contain '=' (fault plans),
  // so only the flag side is split.
  std::vector<std::string> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) {
    const std::size_t eq = a.find('=');
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
      argv.push_back(a.substr(0, eq));
      argv.push_back(a.substr(eq + 1));
    } else {
      argv.push_back(a);
    }
  }

  auto need_value = [&](std::size_t i, const std::string& flag) -> const std::string& {
    if (i + 1 >= argv.size()) throw CliError(flag, "missing value");
    return argv[i + 1];
  };

  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "--help" || a == "-h") {
      opt.show_help = true;
    } else if (a == "--mode") {
      opt.workload.mode = parse_mode(need_value(i, a));
      ++i;
    } else if (a == "--request") {
      opt.workload.request_size = parse_size_for(a, need_value(i, a));
      ++i;
    } else if (a == "--file") {
      opt.workload.file_size = parse_size_for(a, need_value(i, a));
      ++i;
    } else if (a == "--delay") {
      opt.workload.compute_delay = parse_seconds(a, need_value(i, a));
      ++i;
    } else if (a == "--prefetch") {
      opt.workload.prefetch = true;
    } else if (a == "--depth") {
      opt.workload.prefetch_cfg.depth =
          static_cast<std::size_t>(parse_count(a, need_value(i, a), 1));
      ++i;
    } else if (a == "--prefetch-adaptive") {
      opt.workload.prefetch = true;
      opt.workload.prefetch_cfg.adaptive_depth = true;
      opt.workload.prefetch_cfg.predictor = prefetch::PredictorKind::kEnsemble;
    } else if (a == "--prefetch-max-depth") {
      opt.workload.prefetch_cfg.max_depth =
          static_cast<std::size_t>(parse_count(a, need_value(i, a), 1));
      ++i;
    } else if (a == "--prefetch-seed") {
      opt.workload.prefetch_cfg.adaptive_seed =
          static_cast<std::uint64_t>(parse_count(a, need_value(i, a), 0));
      ++i;
    } else if (a == "--predictor") {
      opt.workload.prefetch_cfg.predictor = parse_predictor(need_value(i, a));
      ++i;
    } else if (a == "--compare") {
      opt.compare = true;
    } else if (a == "--selfcheck") {
      opt.selfcheck = true;
    } else if (a == "--sweep") {
      opt.sweep = true;
    } else if (a == "--jobs") {
      opt.jobs = parse_count(a, need_value(i, a), 1);
      ++i;
    } else if (a == "--ncompute") {
      opt.machine.ncompute = parse_count(a, need_value(i, a), 1);
      ++i;
    } else if (a == "--nio") {
      opt.machine.nio = parse_count(a, need_value(i, a), 1);
      ++i;
    } else if (a == "--sunit") {
      sunit = parse_size_for(a, need_value(i, a));
      ++i;
    } else if (a == "--sgroup") {
      sgroup = parse_count(a, need_value(i, a), 0);
      ++i;
    } else if (a == "--scsi16") {
      opt.machine.raid = hw::RaidParams::scsi16();
    } else if (a == "--elevator") {
      opt.machine.raid.disk.scheduler = hw::DiskSched::kElevator;
    } else if (a == "--mesh-mtu") {
      opt.machine.mesh_mtu = parse_size_for(a, need_value(i, a));
      ++i;
    } else if (a == "--coalesce") {
      opt.machine.pfs.coalesce_rpcs = true;
    } else if (a == "--server-batch") {
      opt.machine.pfs.server_batch = true;
    } else if (a == "--buffered") {
      opt.workload.use_fastpath = false;
    } else if (a == "--readahead") {
      opt.machine.pfs.ufs.readahead_blocks =
          static_cast<std::uint32_t>(parse_count(a, need_value(i, a), 0));
      ++i;
    } else if (a == "--cache-tier") {
      opt.machine.pfs.ufs.cache_tier.enabled = true;
    } else if (a == "--cache-tier-blocks") {
      opt.machine.pfs.ufs.cache_tier.enabled = true;
      opt.machine.pfs.ufs.cache_tier.capacity_blocks =
          static_cast<std::uint64_t>(parse_count(a, need_value(i, a), 1));
      ++i;
    } else if (a == "--separate-files") {
      opt.workload.separate_files = true;
    } else if (a == "--own-region") {
      opt.workload.pattern = AccessPattern::kOwnRegion;
    } else if (a == "--pattern") {
      opt.workload.pattern = parse_pattern(need_value(i, a));
      ++i;
    } else if (a == "--stride") {
      opt.workload.stride = parse_count(a, need_value(i, a), 1);
      ++i;
    } else if (a == "--listio-extents") {
      opt.workload.listio_extents = parse_count(a, need_value(i, a), 1);
      if (opt.workload.listio_extents >
          static_cast<int>(prefetch::ListIoPredictor::kMaxPeriod)) {
        throw CliError(a, "must be <= 8");
      }
      ++i;
    } else if (a == "--write-workload") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->kind = parse_write_workload(need_value(i, a));
      ++i;
    } else if (a == "--writers") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->writers = parse_count(a, need_value(i, a), 1);
      ++i;
    } else if (a == "--write-rounds") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->rounds =
          static_cast<std::uint64_t>(parse_count(a, need_value(i, a), 1));
      ++i;
    } else if (a == "--conflicting") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->conflicting = true;
    } else if (a == "--no-round-fsync") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->fsync_each_round = false;
    } else if (a == "--write-fraction") {
      if (!opt.write_workload) opt.write_workload.emplace();
      opt.write_workload->write_fraction = parse_seconds(a, need_value(i, a));
      if (opt.write_workload->write_fraction > 1.0) {
        throw CliError(a, "must be in [0, 1]");
      }
      ++i;
    } else if (a == "--write-tokens") {
      opt.machine.pfs.write_tokens = true;
    } else if (a == "--wb-bytes") {
      opt.machine.pfs.write_back_bytes = parse_size_for(a, need_value(i, a));
      ++i;
    } else if (a == "--verify") {
      opt.workload.verify = true;
    } else if (a == "--faults") {
      opt.workload.faults = fault::parse_plan(need_value(i, a));
      ++i;
    } else if (a == "--trace") {
      opt.trace_path = need_value(i, a);
      if (opt.trace_path.empty()) throw CliError(a, "missing value");
      ++i;
    } else if (a == "--trace-last") {
      opt.trace_last = static_cast<std::size_t>(parse_count(a, need_value(i, a), 1));
      ++i;
    } else {
      throw CliError(a, "unknown flag (try --help)");
    }
  }

  if (sunit || sgroup > 0) {
    pfs::StripeAttrs attrs;
    attrs.stripe_unit = sunit.value_or(64 * 1024);
    attrs.stripe_group.clear();
    const int width = sgroup > 0 ? sgroup : opt.machine.nio;
    if (width > opt.machine.nio) {
      throw CliError("--sgroup", "exceeds --nio");
    }
    for (int k = 0; k < width; ++k) attrs.stripe_group.push_back(k);
    opt.workload.attrs = attrs;
  }
  if (opt.write_workload) {
    if (opt.write_workload->kind == WriteWorkloadKind::kMixed && !opt.workload.faults.empty()) {
      throw CliError("--faults", "the mixed write workload takes no fault plan");
    }
    // The shared flags (--request/--delay/--faults and the whole machine
    // shape) apply to write workloads too; copy them in last so flag order
    // does not matter.
    opt.write_workload->machine = opt.machine;
    opt.write_workload->request_size = opt.workload.request_size;
    opt.write_workload->compute_delay = opt.workload.compute_delay;
    opt.write_workload->faults = opt.workload.faults;
  }
  return opt;
}

}  // namespace ppfs::workload
