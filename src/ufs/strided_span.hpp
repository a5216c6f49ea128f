// StridedSpan: a run of stripe-file bytes as it lies in a caller's buffer.
//
// A PFS read or write moves each stripe file's share of the range in one
// request. In the caller's buffer that share is not one run: it is the
// first piece, then one stripe unit every `group × unit` bytes. A
// StridedSpan describes exactly that, so the server and the UFS can move
// the bytes straight between the buffer and the content store.
//
// The view knows nothing of stripes. It has a size, a run length `run`, a
// distance `stride` between run starts, and a skew: position p lies at
//
//     data + (v / run) * stride + v % run - skew,   v = p + skew,
//
// so the first run holds `run - skew` bytes and every later one `run`
// (the last is cut at the size). A position maps to an address in O(1),
// nothing is allocated, and a plain span converts to a one-run view, whose
// positions are its own offsets. A view that fits in one run is stored as
// one.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "sim/types.hpp"

namespace ppfs::ufs {

template <typename T>
class StridedSpan {
  static_assert(std::is_same_v<std::remove_const_t<T>, std::byte>,
                "StridedSpan views bytes: std::byte or const std::byte");

 public:
  using ByteCount = sim::ByteCount;

  StridedSpan() = default;

  /// One run: position p is s[p].
  StridedSpan(std::span<T> s) noexcept  // NOLINT(google-explicit-constructor): a span is a view
      : data_(s.data()), size_(s.size()), run_(std::max<ByteCount>(s.size(), 1)), stride_(run_) {}

  /// Any contiguous range a span of T can view (a vector, an array).
  template <typename R>
    requires(!std::is_same_v<std::remove_cvref_t<R>, StridedSpan> &&
             !std::is_same_v<std::remove_cvref_t<R>, std::span<T>> &&
             std::is_constructible_v<std::span<T>, R &&>)
  StridedSpan(R&& r) noexcept  // NOLINT(google-explicit-constructor): as std::span's
      : StridedSpan(std::span<T>(std::forward<R>(r))) {}

  /// A read-only view of a writable one.
  template <typename U>
    requires(std::is_const_v<T> && std::is_same_v<U, std::remove_const_t<T>>)
  StridedSpan(const StridedSpan<U>& o) noexcept  // NOLINT(google-explicit-constructor): adds const
      : data_(o.data_), size_(o.size_), run_(o.run_), stride_(o.stride_), skew_(o.skew_) {}

  /// `size` bytes from `first`: `run - skew` of them, then `run` bytes at
  /// every `stride` (>= run) after the first run's start.
  StridedSpan(T* first, ByteCount size, ByteCount skew, ByteCount run, ByteCount stride) noexcept
      : data_(first), size_(size), run_(run), stride_(stride), skew_(skew) {
    assert(run_ > 0 && stride_ >= run_ && skew_ < run_);
    if (stride_ == run_ || skew_ + size_ <= run_) {
      run_ = stride_ = std::max<ByteCount>(size_, 1);
      skew_ = 0;
    }
  }

  ByteCount size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The address of position p (p < size).
  T* at(ByteCount p) const noexcept {
    const ByteCount v = p + skew_;
    return data_ + ((v / run_) * stride_ + v % run_ - skew_);
  }

  /// Positions [pos, pos + len) as a view of their own.
  StridedSpan subspan(ByteCount pos, ByteCount len) const noexcept {
    if (len == 0) return {};
    return StridedSpan(at(pos), len, (pos + skew_) % run_, run_, stride_);
  }

  /// Call fn(T* p, ByteCount n) for each run, in position order.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    T* p = data_;
    ByteCount left = size_;
    ByteCount n = std::min(left, run_ - skew_);
    while (left > 0) {
      fn(p, n);
      left -= n;
      if (left == 0) break;
      p += n + (stride_ - run_);
      n = std::min(left, run_);
    }
  }

  /// Copy the view's bytes, in position order, to `dst`.
  void copy_to(std::byte* dst) const {
    for_each_run([&dst](const T* p, ByteCount n) {
      std::memcpy(dst, p, n);
      dst += n;
    });
  }

  /// Fill the view, in position order, from `src`.
  void copy_from(const std::byte* src) const
    requires(!std::is_const_v<T>)
  {
    for_each_run([&src](T* p, ByteCount n) {
      std::memcpy(p, src, n);
      src += n;
    });
  }

  void fill_zero() const
    requires(!std::is_const_v<T>)
  {
    for_each_run([](T* p, ByteCount n) { std::memset(p, 0, n); });
  }

 private:
  template <typename>
  friend class StridedSpan;

  T* data_ = nullptr;  // position 0
  ByteCount size_ = 0;
  ByteCount run_ = 1;
  ByteCount stride_ = 1;
  ByteCount skew_ = 0;  // position 0's offset into its run
};

using OutBytes = StridedSpan<std::byte>;
using InBytes = StridedSpan<const std::byte>;

}  // namespace ppfs::ufs
