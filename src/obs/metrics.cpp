#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace ms::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

thread_local QueryTelemetry* t_query_sink = nullptr;

/// Atomic add for doubles (CAS loop; uncontended in practice — metrics are
/// recorded per solve call, not per element).
void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bin_of(double value) {
  // Bin 0 covers (-inf, 2 us); each bin doubles; the top bin is open-ended.
  // 1 us = 2^(-20) s roughly (2^-20 = 0.95e-6).
  if (!(value > 9.5367431640625e-07)) return 0;  // < 2^-20 s (and NaN)
  const int bin = static_cast<int>(std::floor(std::log2(value))) + 20;
  if (bin < 0) return 0;
  if (bin >= kNumBins) return kNumBins - 1;
  return bin;
}

double Histogram::bin_lower(int bin) {
  return bin <= 0 ? 0.0 : std::ldexp(1.0, bin - 20);
}

double Histogram::bin_upper(int bin) { return std::ldexp(1.0, bin - 19); }

double Histogram::percentile(double q) const {
  // Take one pass over the bins (racy under concurrent recording — each load
  // is atomic but the set is not a consistent cut; see the header note).
  std::int64_t counts[kNumBins];
  std::int64_t total = 0;
  for (int b = 0; b < kNumBins; ++b) {
    counts[b] = bin_count(b);
    total += counts[b];
  }
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th value (1-based, nearest-rank), then interpolate linearly
  // between the bin's edges by the rank's position inside the bin.
  const double rank = q * static_cast<double>(total);
  std::int64_t seen = 0;
  for (int b = 0; b < kNumBins; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(seen + counts[b]) >= rank) {
      const double within =
          counts[b] > 0 ? (rank - static_cast<double>(seen)) / static_cast<double>(counts[b])
                        : 0.0;
      double estimate = bin_lower(b) + within * (bin_upper(b) - bin_lower(b));
      // The true extremes are tracked exactly; use them to clamp the bin
      // interpolation (and to pin the open-ended first/last bins).
      const double lo = min();
      const double hi = max();
      if (estimate < lo) estimate = lo;
      if (estimate > hi) estimate = hi;
      return estimate;
    }
    seen += counts[b];
  }
  return max();
}

void Histogram::record(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
  bins_[bin_of(value)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

// The +-inf initializers are already the documented empty answers.
double Histogram::min() const { return min_.load(std::memory_order_relaxed); }

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
  for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::global() {
  // Intentionally leaked so handles stay valid in atexit hooks and static
  // destructors regardless of registration order.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Entry& MetricRegistry::entry(const std::string& name, MetricSample::Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("MetricRegistry: '" + name +
                                "' already registered with a different kind");
  }
  return it->second;
}

const MetricRegistry::Entry* MetricRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

Counter& MetricRegistry::counter(const std::string& name) {
  return entry(name, MetricSample::Kind::kCounter).counter;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  return entry(name, MetricSample::Kind::kGauge).gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  return entry(name, MetricSample::Kind::kHistogram).histogram;
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {  // std::map iterates name-sorted
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter: s.count = e.counter.value(); break;
      case MetricSample::Kind::kGauge: s.value = e.gauge.value(); break;
      case MetricSample::Kind::kHistogram:
        s.count = e.histogram.count();
        s.value = e.histogram.sum();
        s.min = e.histogram.min();
        s.max = e.histogram.max();
        s.p50 = e.histogram.percentile(0.50);
        s.p95 = e.histogram.percentile(0.95);
        s.p99 = e.histogram.percentile(0.99);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, e] : entries_) {
    (void)name;
    e.counter.reset();
    e.gauge.reset();
    e.histogram.reset();
  }
}

double MetricRegistry::histogram_sum(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr && e->kind == MetricSample::Kind::kHistogram ? e->histogram.sum() : 0.0;
}

std::int64_t MetricRegistry::counter_value(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr && e->kind == MetricSample::Kind::kCounter ? e->counter.value() : 0;
}

double MetricRegistry::gauge_value(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr && e->kind == MetricSample::Kind::kGauge ? e->gauge.value() : 0.0;
}

const Histogram* MetricRegistry::find_histogram(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr && e->kind == MetricSample::Kind::kHistogram ? &e->histogram : nullptr;
}

QueryScope::QueryScope(QueryTelemetry& sink) : previous_(t_query_sink) { t_query_sink = &sink; }

QueryScope::~QueryScope() { t_query_sink = previous_; }

void count(const std::string& name, std::int64_t n) {
  MetricRegistry::global().counter(name).add(n);
  if (t_query_sink != nullptr) t_query_sink->counts[name] += n;
}

void observe_seconds(const std::string& name, double seconds) {
  MetricRegistry::global().histogram(name).record(seconds);
  if (t_query_sink != nullptr) t_query_sink->seconds[name] += seconds;
}

}  // namespace ms::obs
