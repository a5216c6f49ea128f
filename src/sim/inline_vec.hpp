// Small vector with inline storage for the kernel hot path.
//
// InlineVec<T, N> keeps up to N elements in the object itself (no heap
// traffic) and spills to a doubling heap buffer only beyond that. It exists
// for per-event scratch state — link routes, held resource guards — where a
// std::vector would cost an allocation per simulated message. Move-only
// element types (e.g. sim::ResourceGuard) are supported; the container
// itself is non-copyable and non-movable because it hands out interior
// pointers into its own storage.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ppfs::sim {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(N > 0, "InlineVec needs at least one inline slot");

 public:
  InlineVec() noexcept : data_(inline_ptr()) {}
  InlineVec(const InlineVec&) = delete;
  InlineVec& operator=(const InlineVec&) = delete;
  ~InlineVec() {
    clear();
    release_heap(data_);
  }

  T& push_back(T value) { return emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow();
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Elements are destroyed in insertion order: resource guards released
  /// through teardown must free in the same deterministic order a
  /// std::vector of guards would, or event-dispatch digests change.
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  T* inline_ptr() noexcept { return reinterpret_cast<T*>(storage_); }
  const T* inline_ptr() const noexcept { return reinterpret_cast<const T*>(storage_); }

  void release_heap(T* p) noexcept {
    if (p != inline_ptr()) {
      ::operator delete(static_cast<void*>(p), std::align_val_t{alignof(T)});
    }
  }

  void grow() {
    const std::size_t new_cap = capacity_ * 2;
    T* fresh = static_cast<T*>(
        ::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap(data_);
    data_ = fresh;
    capacity_ = new_cap;
  }

  alignas(T) std::byte storage_[N * sizeof(T)];
  T* data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace ppfs::sim
