// The kernels behind workload::fill_pattern and find_pattern_mismatch.
//
// Internal: callers use generator.hpp, which runs the fastest kernel the
// CPU supports, picked once per process. Tests reach every compiled kernel
// through pattern_kernels() to check each against the byte reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/types.hpp"

namespace ppfs::workload::detail {

struct PatternKernel {
  const char* name;
  /// The running CPU has every instruction the kernel uses.
  bool runnable;
  /// Same contract as workload::fill_pattern.
  void (*fill)(std::uint64_t tag, sim::FileOffset start, std::span<std::byte> out);
  /// Same contract as workload::find_pattern_mismatch.
  std::size_t (*find_mismatch)(std::uint64_t tag, sim::FileOffset start,
                               std::span<const std::byte> data);
};

/// Every kernel compiled into this build, the portable word loop first and
/// the fastest last. The public functions run the last runnable one.
std::span<const PatternKernel> pattern_kernels();

}  // namespace ppfs::workload::detail
