#include "util/memory.hpp"

#include <gtest/gtest.h>

namespace ms::util {
namespace {

TEST(MemoryRss, ReportsPlausibleValues) {
  const std::size_t rss = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
  EXPECT_GT(rss, 1u << 20);  // more than 1 MB resident
  EXPECT_GE(peak, rss / 2);  // peak cannot be wildly below current
}

TEST(FormatBytes, PicksUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 kB");
  EXPECT_EQ(format_bytes(3'500'000), "3.5 MB");
  EXPECT_EQ(format_bytes(2'250'000'000ull), "2.25 GB");
}

}  // namespace
}  // namespace ms::util
