#pragma once
// Small helpers of the benchmark of record: seeded draws, percentiles with
// their sample-count rule, the environment stamp, and the one-line JSON
// result the benchmark prints last.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic uniform draws from (seed, stream). Every purpose (timed
/// specs, check specs, sampled rows) gets its own stream, so the draws of
/// one never shift the draws of another. Built on the 64-bit Mersenne
/// Twister engine (fully specified by the standard) with a hand-rolled
/// unit-interval map, so a seed gives the same inputs on every toolchain.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform index in [0, n); n must be positive.
  std::size_t index(std::size_t n);

 private:
  std::mt19937_64 engine_;
};

/// Linear-interpolation percentile (q in [0, 1]) of `values`; the median at
/// q = 0.5 matches Python's statistics.median. Throws on an empty input.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Samples a run needs before percentile q is trusted: at least ten
/// samples must lie beyond it (20 for the median, 100 for p90). The
/// benchmark prints p90 only above it; p50 is always reported, with its
/// sample count, because every workload must report it.
std::size_t samples_needed(double q);

/// printf-style formatting into a std::string (report lines).
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// every value printed with all its digits (%.17g).
std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics);

/// What a run was measured on: hardware threads, pool workers, OpenMP
/// threads, compiler, build type, source commit, seed and last-level cache
/// size, as one JSON object.
std::string environment_json(int workers, std::uint64_t seed, const std::string& git_commit);

}  // namespace perfbench
