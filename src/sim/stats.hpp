// Statistics collection for experiments.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ppfs::sim {

/// Fixed-footprint streaming quantile sketch: log2-spaced bins (one per
/// power of two of nanoseconds) plus exact count/sum/min/max. Memory is
/// sizeof(*this) no matter how many samples arrive, where a per-sample
/// vector would make stats the dominant allocation of long runs. Quantiles
/// are estimated at the geometric midpoint of the covering bin (clamped to
/// [min, max]); the
/// relative error is bounded by the bin ratio (sqrt(2) ~ 41% worst case,
/// far tighter in practice since latencies cluster within a few bins).
class StreamingQuantiles {
 public:
  /// Bin i covers [2^i, 2^(i+1)) nanoseconds; 64 bins span < 1ns .. > 290y.
  static constexpr std::size_t kBins = 64;

  void add(double x);
  void merge(const StreamingQuantiles& other);

  std::size_t count() const noexcept { return n_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  /// Estimated value at percentile p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  void reset() { *this = StreamingQuantiles{}; }

 private:
  static std::size_t bin_of(double x) noexcept;

  std::array<std::uint64_t, kBins> bins_{};
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ppfs::sim
