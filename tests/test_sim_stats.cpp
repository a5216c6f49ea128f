// Unit tests for the byte-size literals and throughput helper.
#include <gtest/gtest.h>

#include "sim/types.hpp"

namespace ppfs::sim {
namespace {

TEST(ByteLiterals, Convert) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
}

TEST(Throughput, MegabytesPerSecond) {
  EXPECT_DOUBLE_EQ(megabytes_per_second(10'000'000, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(megabytes_per_second(1, 0.0), 0.0);
}

}  // namespace
}  // namespace ppfs::sim
