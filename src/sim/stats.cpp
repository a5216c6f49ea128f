#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ppfs::sim {

std::size_t StreamingQuantiles::bin_of(double x) noexcept {
  // Bin by the bit width of the sample in whole nanoseconds: 0ns -> bin 0,
  // [2^i, 2^(i+1)) ns -> bin i. Saturates at the top bin for absurd values.
  if (!(x > 0.0)) return 0;
  const double ns = x * 1e9;
  if (ns >= 0x1p63) return kBins - 1;
  const auto v = static_cast<std::uint64_t>(ns);
  if (v == 0) return 0;
  const auto w = static_cast<std::size_t>(64 - std::countl_zero(v));
  return w >= kBins ? kBins - 1 : w - 1;
}

void StreamingQuantiles::add(double x) {
  // A non-finite sample would poison the sketch for good: sum_ += NaN makes
  // every later mean() NaN, and NaN loses every std::min/max comparison so
  // min_/max_ stay at their +/-infinity sentinels while n_ grows — after
  // which min()/max() report infinities and percentile()'s clamp is handed
  // an inverted [lo, hi]. Drop such samples instead of counting them.
  if (!std::isfinite(x)) return;
  ++bins_[bin_of(x)];
  ++n_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingQuantiles::merge(const StreamingQuantiles& other) {
  if (other.n_ == 0) return;
  for (std::size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingQuantiles::percentile(double p) const {
  // Zero-count sketches (never added to, or merged only with empties) have
  // min_/max_ still at their sentinel infinities — clamping against them
  // would return garbage, so answer 0 like mean()/min()/max() do.
  if (n_ == 0 || !(min_ <= max_)) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    seen += bins_[i];
    if (static_cast<double>(seen) >= target) {
      // Geometric midpoint of [2^i, 2^(i+1)) ns, clamped into the exact
      // observed range so p0/p100 stay honest.
      const double mid = std::exp2(static_cast<double>(i) + 0.5) * 1e-9;
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

}  // namespace ppfs::sim
