#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ms::obs {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, KeepsLastValue) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(Histogram, TracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0.25);
  h.record(1.0);
  h.record(0.5);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 1.75);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_NEAR(h.mean(), 1.75 / 3.0, 1e-15);
}

TEST(Histogram, BinOfIsMonotoneAndClamped) {
  EXPECT_EQ(Histogram::bin_of(0.0), 0);
  EXPECT_EQ(Histogram::bin_of(1e-9), 0);
  EXPECT_EQ(Histogram::bin_of(1e9), Histogram::kNumBins - 1);
  int last = 0;
  for (double v = 1e-6; v < 2e3; v *= 2.0) {
    const int bin = Histogram::bin_of(v);
    EXPECT_GE(bin, last);
    EXPECT_LT(bin, Histogram::kNumBins);
    last = bin;
  }
  Histogram h;
  h.record(3e-6);
  EXPECT_EQ(h.bin_count(Histogram::bin_of(3e-6)), 1);
}

TEST(Histogram, BinEdgesBracketTheirValues) {
  for (double v = 2e-6; v < 1e3; v *= 3.7) {
    const int bin = Histogram::bin_of(v);
    EXPECT_LE(Histogram::bin_lower(bin), v);
    if (bin < Histogram::kNumBins - 1) {
      EXPECT_LT(v, Histogram::bin_upper(bin));
    }
  }
  EXPECT_DOUBLE_EQ(Histogram::bin_lower(0), 0.0);  // bin 0 is open below
}

TEST(Histogram, PercentilesAreEmptySafeAndClampedToExactExtremes) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  h.record(0.125);
  // One sample: every quantile is that sample, pinned by the min/max clamp
  // (the raw bin interpolation alone could only say "somewhere in the bin").
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.125);
}

TEST(Histogram, PercentilesOrderAndBracketAWideDistribution) {
  Histogram h;
  // 100 samples spanning many bins: 1 ms .. 100 ms.
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_GE(p50, h.min());
  // Bin resolution is 2x, so the estimate lands within the true value's bin:
  // the true medians/tails are 50/95/99 ms.
  EXPECT_GE(p50, 0.032);
  EXPECT_LE(p50, 0.064);
  EXPECT_GE(p95, 0.064);
  EXPECT_GE(p99, 0.064);
}

TEST(MetricRegistry, SnapshotCarriesHistogramPercentiles) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("stage_seconds");
  for (int i = 1; i <= 8; ++i) h.record(1e-3 * i);
  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kHistogram);
  EXPECT_GT(samples[0].p50, 0.0);
  EXPECT_LE(samples[0].p50, samples[0].p95);
  EXPECT_LE(samples[0].p95, samples[0].p99);
  EXPECT_LE(samples[0].p99, samples[0].max);
}

TEST(MetricRegistry, FindHistogramLooksUpWithoutCreating) {
  MetricRegistry registry;
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
  registry.counter("a_counter").add(1);
  EXPECT_EQ(registry.find_histogram("a_counter"), nullptr);  // wrong kind
  Histogram& h = registry.histogram("present");
  EXPECT_EQ(registry.find_histogram("present"), &h);
}

TEST(MetricRegistry, HandlesAreStableAndFindOrCreate) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count");
  a.add(2);
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counter_value("x.count"), 2);
  EXPECT_EQ(reg.counter_value("missing"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
  EXPECT_DOUBLE_EQ(reg.histogram_sum("missing"), 0.0);
}

TEST(MetricRegistry, KindMismatchThrows) {
  MetricRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("name"), std::invalid_argument);
}

TEST(MetricRegistry, SnapshotIsNameSortedRegardlessOfCreationOrder) {
  MetricRegistry forward;
  forward.counter("a").add(1);
  forward.gauge("b").set(2.0);
  forward.histogram("c").record(3.0);

  MetricRegistry reverse;
  reverse.histogram("c").record(3.0);
  reverse.gauge("b").set(2.0);
  reverse.counter("a").add(1);

  const auto s1 = forward.snapshot();
  const auto s2 = reverse.snapshot();
  ASSERT_EQ(s1.size(), 3u);
  ASSERT_EQ(s2.size(), 3u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].name, s2[i].name);
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].count, s2[i].count);
    EXPECT_DOUBLE_EQ(s1[i].value, s2[i].value);
  }
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end(), [](const auto& x, const auto& y) {
    return x.name < y.name;
  }));
}

TEST(MetricRegistry, IdenticalRunsProduceIdenticalSnapshots) {
  const auto run = [](MetricRegistry& reg) {
    for (int i = 0; i < 10; ++i) {
      reg.counter("solves").add(1);
      reg.histogram("seconds").record(0.125 * (i + 1));
      reg.gauge("dofs").set(100.0 * (i + 1));
    }
  };
  MetricRegistry r1, r2;
  run(r1);
  run(r2);
  const auto s1 = r1.snapshot();
  const auto s2 = r2.snapshot();
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].name, s2[i].name);
    EXPECT_EQ(s1[i].count, s2[i].count);
    EXPECT_DOUBLE_EQ(s1[i].value, s2[i].value);
    EXPECT_DOUBLE_EQ(s1[i].min, s2[i].min);
    EXPECT_DOUBLE_EQ(s1[i].max, s2[i].max);
  }
}

TEST(MetricRegistry, ConcurrentUpdatesLoseNothing) {
  MetricRegistry reg;
  Counter& hits = reg.counter("hits");
  Histogram& durations = reg.histogram("durations");
  constexpr int kPerThread = 2000;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
  for (int i = 0; i < 4 * kPerThread; ++i) {
    hits.add(1);
    durations.record(1e-3);
  }
#else
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        hits.add(1);
        durations.record(1e-3);
      }
    });
  }
  for (auto& t : threads) t.join();
#endif
  EXPECT_EQ(hits.value(), 4 * kPerThread);
  EXPECT_EQ(durations.count(), 4 * kPerThread);
  EXPECT_NEAR(durations.sum(), 4 * kPerThread * 1e-3, 1e-9);
}

TEST(MetricRegistry, ResetZeroesButKeepsNames) {
  MetricRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.0);
  reg.histogram("h").record(1.0);
  reg.reset();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(reg.counter_value("c"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 0.0);
  EXPECT_DOUBLE_EQ(reg.histogram_sum("h"), 0.0);
}

}  // namespace
}  // namespace ms::obs
