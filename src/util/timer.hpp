#pragma once
// Wall-clock timing helpers used by the benchmark harnesses and the
// run-statistics reported alongside every solve.

#include <chrono>
#include <string>

namespace ms::util {

/// Simple monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock_t::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock_t::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock_t::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock_t = std::chrono::steady_clock;
  clock_t::time_point start_;
};

/// Human-friendly duration string ("431 ms", "12.8 s", "5m02s").
std::string format_seconds(double seconds);

}  // namespace ms::util
