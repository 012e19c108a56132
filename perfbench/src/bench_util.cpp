#include "bench_util.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// SplitMix64 finalizer: decorrelates nearby (seed, stream) pairs before
/// they seed the engine.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : engine_(mix(mix(seed) ^ mix(stream + 1))) {}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: empty range");
  return static_cast<std::size_t>(engine_() % n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::size_t samples_needed(double q) {
  if (!(q >= 0.0 && q < 1.0)) throw std::invalid_argument("samples_needed: q in [0, 1)");
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string environment_json(int workers, std::uint64_t seed, const std::string& git_commit) {
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string out = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_workers\": " + std::to_string(workers);
  out += ", \"omp_max_threads\": " + std::to_string(omp_threads);
#if defined(__clang__)
  out += ", \"compiler\": " + quoted(std::string("clang ") + __clang_version__);
#else
  out += ", \"compiler\": " + quoted(std::string("gcc ") + __VERSION__);
#endif
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"git_commit\": " + quoted(git_commit);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"llc_bytes\": " + std::to_string(llc > 0 ? llc : 0);
  return out + "}";
}

}  // namespace perfbench
