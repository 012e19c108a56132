#pragma once
// Process-wide registry of named metrics: monotonically accumulating
// counters (int64), last-value gauges (double), and duration histograms
// (count / sum / min / max plus log2-spaced bins). Every solve path
// publishes its *Stats fields here — the registry is the one place the
// RunReport exporter, the benches, and the sweep engine's per-query
// accounting read from.
//
// A count or a duration is recorded by one call, which also charges the
// query the calling thread runs, if any (see QueryScope below):
//
//   ms::obs::count("rom.global.solves");
//   ms::obs::observe_seconds("rom.global.solve_seconds", t);
//
// Gauges, and the handles a hot path caches, go to the registry directly:
//
//   ms::obs::MetricRegistry::global().gauge("rom.global.num_dofs").set(n);
//
// Thread safety: metric *lookup* takes a mutex (amortized away by caching
// the returned reference — handles are stable for the registry's lifetime);
// updates on the returned handles are lock-free atomics, safe inside OpenMP
// regions. Iteration (snapshot) is sorted by name, so two identical runs
// produce byte-identical reports no matter the thread interleaving that
// created the metrics.

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ms::obs {

/// Monotonic (well, add-only — negative deltas are the caller's business)
/// integer accumulator.
class Counter {
 public:
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Duration (or any nonnegative double) distribution: count, sum, min, max,
/// and log2-spaced bins from 1 us to ~1000 s. Lock-free recording.
class Histogram {
 public:
  static constexpr int kNumBins = 32;

  void record(double value);

  [[nodiscard]] std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< +inf when empty
  [[nodiscard]] double max() const;  ///< -inf when empty
  [[nodiscard]] double mean() const; ///< 0 when empty
  [[nodiscard]] std::int64_t bin_count(int bin) const {
    return bins_[bin].load(std::memory_order_relaxed);
  }
  /// Bin index of a value: bin b holds values in [2^(b-20), 2^(b-19)) seconds
  /// (b = 0 additionally catches everything below 1 us, the top bin
  /// everything above).
  static int bin_of(double value);
  /// Lower edge of bin b in seconds (0 for bin 0, whose range is open below).
  static double bin_lower(int bin);
  /// Upper edge of bin b in seconds.
  static double bin_upper(int bin);
  /// Quantile estimate (q in [0, 1]) interpolated linearly within the log2
  /// bin holding the q-th recorded value, clamped to the exact [min, max].
  /// Approximate by construction (bin resolution is 2x), and taken from a
  /// racy snapshot of the bins under concurrent recording — good for
  /// reporting, not for assertions tighter than a bin. 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  void reset();

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +-inf sentinels double as the empty-histogram answers, so record() needs
  // no first-writer seeding (which would race with concurrent recorders).
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<std::int64_t> bins_[kNumBins]{};
};

/// One metric's exported state, produced by MetricRegistry::snapshot().
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::int64_t count = 0;  ///< counter value / histogram count
  double value = 0.0;      ///< gauge value / histogram sum
  double min = 0.0, max = 0.0;             ///< histogram only
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  ///< histogram only (interpolated)
};

class MetricRegistry {
 public:
  /// The process-wide registry every instrumented path publishes into.
  static MetricRegistry& global();

  /// Find-or-create. Returned references are stable for the registry's
  /// lifetime; creating the same name with a different kind throws
  /// std::invalid_argument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All metrics, sorted by name (deterministic across runs and thread
  /// interleavings).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zero every metric (names stay registered). For per-case bench deltas
  /// prefer Snapshot arithmetic over resetting shared state.
  void reset();

  /// Sum of a histogram (0 if absent) / value of a counter (0 if absent) —
  /// lookup without creating, for tests and report consumers.
  [[nodiscard]] double histogram_sum(const std::string& name) const;
  [[nodiscard]] std::int64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  /// The histogram registered under `name`, or nullptr (absent / not a
  /// histogram). For percentile readers that must not create the metric.
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };
  Entry& entry(const std::string& name, MetricSample::Kind kind);
  const Entry* find(const std::string& name) const;

  mutable std::mutex mutex_;
  // std::map keeps name-sorted order for snapshots; node-based storage keeps
  // handle references stable across inserts.
  std::map<std::string, Entry> entries_;
};

/// One query's share of the registry's counters and duration histograms,
/// keyed by the registry names ("la.factor_cache.hits",
/// "rom.global.solve_seconds"), so a row and a RunReport join by exact
/// name. std::map keeps rendering deterministic.
struct QueryTelemetry {
  std::map<std::string, std::int64_t> counts;
  std::map<std::string, double> seconds;

  [[nodiscard]] std::int64_t count(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
  }
  [[nodiscard]] double secs(const std::string& name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  [[nodiscard]] bool empty() const { return counts.empty() && seconds.empty(); }
};

/// RAII installer: until destruction, count and observe_seconds on *this
/// thread* also add into `sink`. Nesting restores the outer scope on exit.
/// The sink is a plain thread-local pointer, so only what the installing
/// thread records reaches it: OpenMP team threads and pool handoffs carry
/// no scope (DESIGN.md "Query-scoped telemetry").
class QueryScope {
 public:
  explicit QueryScope(QueryTelemetry& sink);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  QueryTelemetry* previous_;
};

/// Add `n` to the registry counter `name` and, when the calling thread has
/// a QueryScope installed, to its count of the same name.
void count(const std::string& name, std::int64_t n = 1);

/// Record `seconds` in the registry histogram `name` and, when the calling
/// thread has a QueryScope installed, add it to its seconds of the same name.
void observe_seconds(const std::string& name, double seconds);

}  // namespace ms::obs
