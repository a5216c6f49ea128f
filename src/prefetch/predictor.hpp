// Access-pattern predictors.
//
// The prototype's prediction is "dynamic in nature and totally driven by
// the application's access requests. Details about when and where to
// prefetch is derived from the read request from the application." For the
// M_RECORD mode that means: this rank's next record is one full round
// (nprocs x request size) past the one it just read.
//
// ModeAwarePredictor reproduces the prototype. The others are extensions
// (paper future work: "a greater variety of workloads and access
// patterns"): StridedPredictor learns an arbitrary constant stride,
// ListIoPredictor learns a repeating cycle of deltas (the shape a
// vector-of-extents / list-I/O request stream produces), and
// EnsemblePredictor (ensemble.hpp) races all of them per fd with online
// confidence scoring.
//
// The API splits learning from prediction so the engine sits on an
// allocation-free read path: observe() mutates per-fd history, predict()
// is pure and fills a caller-provided span (a stack array in the engine),
// forget() drops per-fd state when the engine closes the file.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "pfs/client.hpp"
#include "sim/flat_map.hpp"
#include "sim/types.hpp"

namespace ppfs::prefetch {

using sim::ByteCount;
using sim::FileOffset;

/// Upper bound on readahead depth; sizes the engine's stack target buffer
/// and clamps PrefetchConfig::max_depth.
inline constexpr std::size_t kMaxPrefetchDepth = 32;

class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Feed the read that just completed into per-fd history. Called once
  /// per read, before predict(). Stateless predictors ignore it.
  virtual void observe(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len) {
    (void)client;
    (void)fd;
    (void)off;
    (void)len;
  }

  /// Fill `out` with the offsets worth prefetching after the observed read,
  /// nearest-first, and return how many were written (<= out.size()).
  /// Pure: no history mutation, no allocation.
  virtual std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off,
                              ByteCount len, std::span<FileOffset> out) = 0;

  /// Drop any per-fd history. Wired into the engine's close path so
  /// long-lived clients don't accumulate state for dead fds.
  virtual void forget(int fd) { (void)fd; }
};

/// The prototype's rule: ask the client where this rank's next reads land
/// under the file's I/O mode (exact for M_RECORD / M_ASYNC / M_UNIX).
class ModeAwarePredictor final : public Predictor {
 public:
  std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len,
                      std::span<FileOffset> out) override;
};

/// Pure sequential next-block rule (ignores mode interleaving): what a
/// uniprocessor readahead would do. Included as the paper's "strategies
/// that work well for sequential files in uniprocessor environments may
/// not extend" strawman — measurably wrong under M_RECORD.
class SequentialPredictor final : public Predictor {
 public:
  std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len,
                      std::span<FileOffset> out) override;
};

/// Learns a constant stride from the last few requests on each fd.
/// Predicts off + k*stride once two consecutive deltas agree.
class StridedPredictor final : public Predictor {
 public:
  void observe(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len) override;
  std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len,
                      std::span<FileOffset> out) override;
  void forget(int fd) override;

 private:
  struct History {
    FileOffset prev = 0;
    std::int64_t last_delta = 0;
    std::int64_t stride = 0;  // confirmed; 0 = not yet learned
    bool has_prev = false;
    bool has_last_delta = false;
  };
  sim::FlatMap<int, History> history_;
};

/// Learns a repeating cycle of deltas — the access shape of list-I/O
/// (vector-of-extents) requests, where a process walks a frame of extents
/// separated by gaps and then jumps to the next frame. A constant stride
/// is the period-1 special case, but this predictor needs two full cycles
/// to confirm, so StridedPredictor stays the faster learner there.
class ListIoPredictor final : public Predictor {
 public:
  /// Longest delta cycle the predictor can confirm.
  static constexpr std::size_t kMaxPeriod = 8;

  void observe(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len) override;
  std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len,
                      std::span<FileOffset> out) override;
  void forget(int fd) override;

 private:
  static constexpr std::size_t kRing = 16;  // power of two, >= 2*kMaxPeriod
  struct History {
    std::int64_t deltas[kRing] = {};  // ring of most recent deltas
    std::uint64_t count = 0;          // deltas ever pushed
    FileOffset prev = 0;
    std::size_t period = 0;  // confirmed cycle length; 0 = not yet learned
    bool has_prev = false;
  };
  sim::FlatMap<int, History> history_;

  /// Re-search the ring for the smallest confirmed cycle (sets h.period).
  static void detect(History& h);
};

enum class PredictorKind { kModeAware, kSequential, kStrided, kListIo, kEnsemble };

std::unique_ptr<Predictor> make_predictor(PredictorKind kind);
const char* predictor_name(PredictorKind kind);

}  // namespace ppfs::prefetch
