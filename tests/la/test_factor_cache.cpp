// The factor-specific lock on la::FactorCache: one cached factor solved from
// many threads at once. The single-flight protocol itself is tested once, in
// tests/util/test_single_flight_cache.cpp.

#include "la/factor_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

namespace ms::la {
namespace {

/// 2-D 5-point Laplacian on an m x m grid (SPD, sparse, realistic fill).
CsrMatrix laplacian_2d(idx_t m) {
  const idx_t n = m * m;
  TripletList t(n, n);
  for (idx_t j = 0; j < m; ++j) {
    for (idx_t i = 0; i < m; ++i) {
      const idx_t u = j * m + i;
      t.add(u, u, 4.0);
      if (i > 0) t.add(u, u - 1, -1.0);
      if (i + 1 < m) t.add(u, u + 1, -1.0);
      if (j > 0) t.add(u, u - m, -1.0);
      if (j + 1 < m) t.add(u, u + m, -1.0);
    }
  }
  return CsrMatrix::from_triplets(t);
}

FactorCache::Entry build_entry(idx_t m) {
  FactorCache::Entry entry;
  entry.factor = std::make_shared<SparseCholesky>(laplacian_2d(m));
  return entry;
}

TEST(FactorCache, SharedFactorSolvesConcurrentlyThroughEveryEntryPoint) {
  // A factor holds no mutable state: threads solving one cached entry at
  // once through solve() and solve_multi(cases) all get the serial answers
  // bit for bit (the TSan job runs this suite, so a shared scratch races).
  FactorCache cache;
  const FactorCache::Entry entry = cache.get_or_create("k", [] { return build_entry(12); });
  const auto n = static_cast<std::size_t>(entry.factor->order());
  std::vector<Vec> cases(3, Vec(n));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) cases[c][i] = std::sin(0.1 * static_cast<double>(i + c));
  }
  const Vec serial_one = entry.factor->solve(cases[0]);
  const std::vector<Vec> serial_panel = entry.factor->solve_multi(cases);

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto shared = cache.get_or_create("k", [] { return build_entry(12); });
      for (int r = 0; r < kRounds; ++r) {
        if (shared.factor->solve(cases[0]) != serial_one) mismatches.fetch_add(1);
        if (shared.factor->solve_multi(cases) != serial_panel) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace ms::la
