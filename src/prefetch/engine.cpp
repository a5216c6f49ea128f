#include "prefetch/engine.hpp"

#include <algorithm>
#include <cstring>

#include "sim/check/audit.hpp"
#include "trace/span.hpp"

namespace ppfs::prefetch {

void PrefetchStats::merge(const PrefetchStats& o) {
  issued += o.issued;
  hits_ready += o.hits_ready;
  hits_in_flight += o.hits_in_flight;
  misses += o.misses;
  stale_discarded += o.stale_discarded;
  wasted += o.wasted;
  shed += o.shed;
  epoch_discarded += o.epoch_discarded;
  fault_pauses += o.fault_pauses;
  fault_skips += o.fault_skips;
  bytes_prefetched += o.bytes_prefetched;
  bytes_served += o.bytes_served;
  wait_time += o.wait_time;
  depth_ramp_ups += o.depth_ramp_ups;
  depth_ramp_downs += o.depth_ramp_downs;
  depth_collapses += o.depth_collapses;
  wasted_bytes += o.wasted_bytes;
  for (std::size_t b = 0; b < kDepthHistBuckets; ++b) depth_hist[b] += o.depth_hist[b];
}

PrefetchEngine::PrefetchEngine(pfs::PfsClient& client, PrefetchConfig cfg)
    : client_(client), cfg_(cfg), predictor_(make_predictor(cfg.predictor)) {
  if (cfg_.adaptive_depth) {
    ControllerParams p;
    p.min_depth = 1;
    // Bounded by buffer occupancy: the controller can never ramp past the
    // engine's resident-buffer cap (the value TraceScope's occupancy
    // counter tracks), nor past the engine's stack prediction buffer.
    p.max_depth = std::min({cfg_.max_depth, cfg_.max_buffers_per_file, kMaxPrefetchDepth});
    p.window = cfg_.feedback_window;
    p.miss_storm = cfg_.miss_storm;
    p.seed = cfg_.adaptive_seed;
    controller_ = std::make_unique<AdaptiveController>(p);
  }
}

PrefetchEngine::~PrefetchEngine() {
  if (auto* a = auditor()) {
    a->check_buffer_conservation(client_.machine().simulation().now(), this,
                                 /*in_destructor=*/true);
  }
}

sim::check::Auditor* PrefetchEngine::auditor() const {
  return client_.machine().simulation().auditor();
}

void PrefetchEngine::trace_instant(std::uint8_t code, FileOffset off, ByteCount len) const {
  trace::instant(client_.machine().simulation(), trace::TraceTrack::kPrefetch, code,
                 client_.rank(), static_cast<std::uint64_t>(off),
                 static_cast<std::uint64_t>(len));
}

void PrefetchEngine::occupancy_changed(std::int64_t dbuffers, std::int64_t dbytes) {
  resident_count_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(resident_count_) +
                                               dbuffers);
  resident_bytes_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(resident_bytes_) +
                                               dbytes);
  trace::counter(client_.machine().simulation(), trace::TraceTrack::kPrefetch,
                 trace::code::kPrefetchOccupancy, client_.rank(), resident_count_,
                 resident_bytes_);
}

void PrefetchEngine::on_open(int fd) {
  lists_.try_emplace(fd);  // "when the file is opened newly by a process,
                           // the prefetch list gets initialized"
  if (controller_) {
    controller_->on_open(fd);
    // Baseline sample for the per-fd depth counter track.
    trace::counter(client_.machine().simulation(), trace::TraceTrack::kPrefetch,
                   trace::code::kPrefetchDepth, client_.rank(),
                   static_cast<std::uint64_t>(fd), controller_->depth(fd));
  }
}

std::size_t PrefetchEngine::current_depth(int fd) const {
  return controller_ ? controller_->depth(fd) : cfg_.depth;
}

void PrefetchEngine::note_depth(int fd, std::size_t depth) {
  trace_instant(trace::code::kPrefetchDepthChange, static_cast<FileOffset>(fd),
                static_cast<ByteCount>(depth));
  trace::counter(client_.machine().simulation(), trace::TraceTrack::kPrefetch,
                 trace::code::kPrefetchDepth, client_.rank(),
                 static_cast<std::uint64_t>(fd), static_cast<std::uint64_t>(depth));
}

void PrefetchEngine::sync_controller_stats() {
  const ControllerCounters& c = controller_->counters();
  stats_.depth_ramp_ups = c.ramp_ups;
  stats_.depth_ramp_downs = c.ramp_downs;
  stats_.depth_collapses = c.collapses;
}

void PrefetchEngine::depth_feedback(int fd, bool hit) {
  if (!controller_) return;
  const std::size_t before = controller_->depth(fd);
  if (hit) {
    controller_->on_hit(fd);
  } else {
    controller_->on_miss(fd);
  }
  const std::size_t after = controller_->depth(fd);
  if (after != before) note_depth(fd, after);
  sync_controller_stats();
}

std::size_t PrefetchEngine::resident_buffers(int fd) const {
  auto it = lists_.find(fd);
  return it == lists_.end() ? 0 : it->second.size();
}

void PrefetchEngine::shed_all() {
  auto* a = auditor();
  for (auto& [fd, list] : lists_) {
    (void)fd;
    for (auto& buf : list.drain()) {
      ++stats_.shed;
      stats_.wasted_bytes += buf->length;
      trace_instant(trace::code::kPrefetchShed, buf->offset, buf->length);
      occupancy_changed(-1, -static_cast<std::int64_t>(buf->length));
      if (a) a->on_buffer_discarded(this);
      retire(buf);
    }
  }
  if (controller_) {
    // Adaptation collapses with the shed: deep readahead must not resume
    // at full depth into a recovering system. (std::map iteration order is
    // fd order — deterministic.)
    for (auto& [fd, list] : lists_) {
      (void)list;
      const std::size_t before = controller_->depth(fd);
      controller_->on_fault(fd);
      if (controller_->depth(fd) != before) note_depth(fd, controller_->depth(fd));
    }
    sync_controller_stats();
  }
}

bool PrefetchEngine::fault_gate() {
  const std::uint64_t signal = client_.rpc_stats().fault_signal();
  const bool down = client_.filesystem().any_server_down();
  if (signal != last_fault_signal_ || down) {
    // Fresh fault activity (or an ongoing outage): shed every speculative
    // buffer — its data may predate a crash, and its disk traffic competes
    // with recovery — and pause prediction.
    last_fault_signal_ = signal;
    if (!fault_paused_) {
      fault_paused_ = true;
      ++stats_.fault_pauses;
    }
    quiet_reads_ = 0;
    shed_all();
    ++stats_.fault_skips;
    return true;
  }
  if (fault_paused_) {
    ++quiet_reads_;
    if (quiet_reads_ < cfg_.fault_resume_reads) {
      ++stats_.fault_skips;
      return true;
    }
    fault_paused_ = false;  // system quiet again: resume speculation
  }
  return false;
}

sim::Task<void> PrefetchEngine::reap(PrefetchBufferList::Handle buf) {
  // The ART is still writing into buf->data; hold the buffer until it
  // finishes, then let it die with this frame.
  try {
    co_await client_.arts().wait(buf->request);
  } catch (...) {
    // A failing prefetch being discarded is of no consequence.
  }
}

void PrefetchEngine::retire(PrefetchBufferList::Handle buf) {
  if (buf && buf->in_flight()) {
    client_.machine().simulation().spawn(reap(std::move(buf)));
  }
}

std::uint64_t PrefetchEngine::discard_overlapping(PrefetchBufferList& list, FileOffset off,
                                                  ByteCount len) {
  std::uint64_t dropped = 0;
  for (auto& stale : list.overlapping(off, len)) {
    list.remove(stale);
    occupancy_changed(-1, -static_cast<std::int64_t>(stale->length));
    stats_.wasted_bytes += stale->length;
    retire(stale);
    ++stats_.stale_discarded;
    if (auto* a = auditor()) a->on_buffer_discarded(this);
    ++dropped;
  }
  return dropped;
}

void PrefetchEngine::on_write(int fd, FileOffset off, ByteCount len) {
  if (auto it = lists_.find(fd); it != lists_.end()) discard_overlapping(it->second, off, len);
}

sim::Task<std::optional<ByteCount>> PrefetchEngine::try_serve(int fd, FileOffset off,
                                                              ByteCount len,
                                                              std::span<std::byte> out) {
  if (!cfg_.enabled) co_return std::nullopt;
  auto& list = lists_[fd];

  auto buf = list.find(off, len);
  if (buf && buf->epoch != client_.filesystem().topology_epoch()) {
    // The buffer was issued before a crash/restart changed the mount
    // topology. Even if its ART completed, the reply crossed a dead epoch —
    // discard rather than hand possibly-pre-crash bytes to the reader.
    list.remove(buf);
    occupancy_changed(-1, -static_cast<std::int64_t>(buf->length));
    retire(buf);
    ++stats_.epoch_discarded;
    stats_.wasted_bytes += buf->length;
    if (auto* a = auditor()) a->on_buffer_discarded(this);
    trace_instant(trace::code::kPrefetchShed, off, len);
    buf = nullptr;
  }
  if (!buf) {
    // Wrong-prediction hygiene: anything overlapping this read but not
    // matching it exactly will never hit; free it now.
    const std::uint64_t dropped = discard_overlapping(list, off, len);
    if (controller_ && dropped) controller_->on_wasted(fd, dropped);
    ++stats_.misses;
    trace_instant(trace::code::kPrefetchMiss, off, len);
    depth_feedback(fd, /*hit=*/false);
    co_return std::nullopt;
  }

  list.remove(buf);
  occupancy_changed(-1, -static_cast<std::int64_t>(buf->length));
  if (auto* a = auditor()) a->on_buffer_consumed(this);
  if (buf->in_flight()) {
    // Miss-when-presented but mostly done: wait out the remainder.
    ++stats_.hits_in_flight;
    trace_instant(trace::code::kPrefetchHitInFlight, off, len);
    const sim::SimTime t0 = client_.machine().simulation().now();
    co_await client_.arts().wait(buf->request);
    stats_.wait_time += client_.machine().simulation().now() - t0;
  } else {
    ++stats_.hits_ready;
    trace_instant(trace::code::kPrefetchHitReady, off, len);
  }
  if (buf->request->error) {
    // The prefetch itself failed; fall back to the normal read path.
    ++stats_.misses;
    trace_instant(trace::code::kPrefetchMiss, off, len);
    depth_feedback(fd, /*hit=*/false);
    co_return std::nullopt;
  }
  depth_feedback(fd, /*hit=*/true);

  const ByteCount got = std::min<ByteCount>(buf->request->result, len);
  // "The prefetched data is copied into the prefetch buffer present in the
  // system and from there is copied into the user buffer": charge the
  // buffer bookkeeping plus the memory copy, then move the real bytes.
  co_await client_.cpu().compute(client_.cpu().params().buffer_mgmt_overhead);
  co_await client_.cpu().copy(got);
  std::memcpy(out.data(), buf->data.get(), got);
  stats_.bytes_served += got;
  co_return got;
}

sim::Task<void> PrefetchEngine::after_read(int fd, FileOffset off, ByteCount len) {
  if (!cfg_.enabled || len == 0) co_return;
  if (fault_gate()) co_return;
  auto& list = lists_[fd];

  const std::size_t depth = std::min(current_depth(fd), kMaxPrefetchDepth);

  // Learning and prediction are split so the predict pass can fill a stack
  // buffer: the per-read decision path allocates nothing.
  predictor_->observe(client_, fd, off, len);
  std::array<FileOffset, kMaxPrefetchDepth> target_buf;
  const std::size_t ntargets =
      depth == 0 ? 0
                 : predictor_->predict(client_, fd, off, len,
                                       std::span<FileOffset>(target_buf.data(), depth));
  const std::span<const FileOffset> targets(target_buf.data(), ntargets);
  stats_.depth_hist[ntargets == 0
                        ? 0
                        : std::min(depth, PrefetchStats::kDepthHistBuckets - 1)] += 1;
  const auto is_target = [&](const PrefetchBufferList::Handle& b) {
    if (!b || b->length != len) return false;
    for (FileOffset t : targets) {
      if (b->offset == t) return true;
    }
    return false;
  };
  for (FileOffset p : targets) {
    if (list.find(p, len)) continue;  // already buffered or in flight
    if (list.size() >= cfg_.max_buffers_per_file) {
      // Memory cap. Evict the oldest buffer only if it is no longer
      // predicted (a dead prefetch — fed back to the adaptive depth
      // controller); if everything resident is still in the prediction
      // window, stop.
      auto victim = list.oldest();
      if (!victim || is_target(victim)) break;
      list.remove(victim);
      occupancy_changed(-1, -static_cast<std::int64_t>(victim->length));
      stats_.wasted_bytes += victim->length;
      retire(victim);
      ++stats_.wasted;
      if (auto* a = auditor()) a->on_buffer_discarded(this);
      if (controller_) controller_->on_wasted(fd, 1);
    }

    // Issue cost on the user thread: ART setup + prefetch buffer
    // allocation in compute-node memory.
    co_await client_.cpu().compute(client_.cpu().params().async_setup_overhead +
                                   client_.cpu().params().buffer_mgmt_overhead);

    auto buf = std::make_shared<PrefetchBuffer>();
    buf->offset = p;
    buf->length = len;
    buf->epoch = client_.filesystem().topology_epoch();
    buf->data = std::make_unique_for_overwrite<std::byte[]>(len);
    // The posted request travels the same positioned-read path as user
    // I/O, so when extent coalescing / server batching are enabled the
    // prefetch's blocks merge into scatter-gather RPCs and sorted disk
    // sweeps exactly like demand reads — speculation gets no private,
    // slower data path.
    buf->request = client_.post_prefetch(fd, p, len, {buf->data.get(), len});
    list.add(std::move(buf));
    occupancy_changed(1, static_cast<std::int64_t>(len));
    if (auto* a = auditor()) a->on_buffer_allocated(this);
    ++stats_.issued;
    stats_.bytes_prefetched += len;
    trace_instant(trace::code::kPrefetchIssue, p, len);
  }
}

void PrefetchEngine::on_close(int fd) {
  auto it = lists_.find(fd);
  if (it == lists_.end()) return;
  auto* a = auditor();
  for (auto& buf : it->second.drain()) {
    ++stats_.wasted;
    stats_.wasted_bytes += buf->length;
    occupancy_changed(-1, -static_cast<std::int64_t>(buf->length));
    if (a) a->on_buffer_freed_at_close(this);
    retire(buf);
  }
  lists_.erase(it);
  // Per-fd histories die with the file (the StridedPredictor leak fix);
  // controller state goes the same way.
  predictor_->forget(fd);
  if (controller_) {
    controller_->on_close(fd);
    sync_controller_stats();
  }
  // With no buffers resident anywhere in this engine, conservation must
  // balance exactly: allocated == consumed + discarded + freed-at-close.
  if (a) {
    bool resident = false;
    for (const auto& [ofd, list] : lists_) {
      (void)ofd;
      if (!list.empty()) resident = true;
    }
    if (!resident) {
      a->check_buffer_conservation(client_.machine().simulation().now(), this);
    }
  }
}

std::unique_ptr<PrefetchEngine> attach_prefetcher(pfs::PfsClient& client, PrefetchConfig cfg) {
  auto engine = std::make_unique<PrefetchEngine>(client, cfg);
  client.set_prefetcher(engine.get());
  return engine;
}

}  // namespace ppfs::prefetch
