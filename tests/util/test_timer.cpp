#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace ms::util {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double s = timer.seconds();
  EXPECT_GE(s, 0.009);
  EXPECT_LT(s, 5.0);
  EXPECT_NEAR(timer.milliseconds(), timer.seconds() * 1e3, 1.0);
}

TEST(WallTimer, ResetRestartsClock) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.009);
}

TEST(FormatSeconds, PicksSensibleUnits) {
  EXPECT_EQ(format_seconds(0.25), "250 ms");
  EXPECT_EQ(format_seconds(12.34), "12.3 s");
  EXPECT_EQ(format_seconds(125.0), "2m05.0s");
}

}  // namespace
}  // namespace ms::util
