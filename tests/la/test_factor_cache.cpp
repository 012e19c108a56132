#include "la/factor_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
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
  auto matrix = std::make_shared<CsrMatrix>(laplacian_2d(m));
  entry.factor = std::make_shared<SparseCholesky>(*matrix);
  entry.matrix = std::move(matrix);
  return entry;
}

TEST(FactorCache, MissBuildsThenHitsShareOneEntry) {
  FactorCache cache;
  EXPECT_FALSE(cache.contains("k"));
  bool built = false;
  const FactorCache::Entry first = cache.get_or_create("k", [] { return build_entry(6); }, &built);
  EXPECT_TRUE(built);
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const FactorCache::Entry second =
      cache.get_or_create("k", [] { return build_entry(6); }, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(second.factor.get(), first.factor.get());
  EXPECT_EQ(second.matrix.get(), first.matrix.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FactorCache, DistinctKeysBuildDistinctEntries) {
  FactorCache cache;
  const auto a = cache.get_or_create("a", [] { return build_entry(4); });
  const auto b = cache.get_or_create("b", [] { return build_entry(5); });
  EXPECT_NE(a.factor.get(), b.factor.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(FactorCache, SingleFlightUnderContention) {
  // Many threads race on one absent key: exactly one builder run, everyone
  // gets the same entry — num_factorizations stays deterministic.
  FactorCache cache;
  std::atomic<int> builds{0};
  std::atomic<int> built_flags{0};
  constexpr int kThreads = 8;
  std::vector<const SparseCholesky*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool built = false;
      const auto entry = cache.get_or_create(
          "shared",
          [&] {
            builds.fetch_add(1);
            return build_entry(10);
          },
          &built);
      if (built) built_flags.fetch_add(1);
      seen[static_cast<std::size_t>(t)] = entry.factor.get();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_flags.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(FactorCache, ThrowingBuilderClearsSlotForRetry) {
  FactorCache cache;
  EXPECT_THROW(cache.get_or_create("k",
                                   []() -> FactorCache::Entry {
                                     throw std::runtime_error("assembly failed");
                                   }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("k"));
  // The failed build left no slot behind; the next caller builds cleanly.
  bool built = false;
  const auto entry = cache.get_or_create("k", [] { return build_entry(4); }, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(entry.factor, nullptr);
  EXPECT_TRUE(cache.contains("k"));
}

TEST(FactorCache, WaitersRetryAfterBuilderFailure) {
  // Contention on one key whose FIRST builder invocation throws: the failed
  // claimant must erase its pending slot (not poison it), the waiters race
  // to claim the retry, exactly one rebuilds, and everyone else shares the
  // rebuilt entry. This is the protocol cancelled/faulted sweep queries
  // lean on — a thrown builder never wedges later scenarios.
  FactorCache cache;
  std::atomic<int> attempts{0};
  std::atomic<int> exceptions{0};
  std::atomic<int> successes{0};
  constexpr int kThreads = 8;
  std::vector<const SparseCholesky*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        const auto entry = cache.get_or_create("shared", [&] {
          if (attempts.fetch_add(1) == 0) throw std::runtime_error("injected build failure");
          return build_entry(8);
        });
        successes.fetch_add(1);
        seen[static_cast<std::size_t>(t)] = entry.factor.get();
      } catch (const std::runtime_error&) {
        exceptions.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one thread saw the failure; every other got the one rebuilt
  // factor. Two claims total (failed + retry), the rest were hits.
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(exceptions.load(), 1);
  EXPECT_EQ(successes.load(), kThreads - 1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 2));
  EXPECT_EQ(cache.size(), 1u);
  const SparseCholesky* shared = nullptr;
  for (const SparseCholesky* factor : seen) {
    if (factor == nullptr) continue;
    if (shared == nullptr) shared = factor;
    EXPECT_EQ(factor, shared);
  }
  EXPECT_NE(shared, nullptr);
}

TEST(FactorCache, SharedFactorSolvesConcurrentlyThroughEveryEntryPoint) {
  // A factor holds no mutable state: threads solving one cached entry at
  // once through solve() and solve_multi(cases) all get the serial answers
  // bit for bit (the TSan job runs this suite, so a shared scratch races).
  FactorCache cache;
  const FactorCache::Entry entry = cache.get_or_create("k", [] { return build_entry(12); });
  const auto n = static_cast<std::size_t>(entry.matrix->rows());
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

TEST(FactorCache, ClearDropsEntriesButCallersKeepTheirs) {
  FactorCache cache;
  const auto entry = cache.get_or_create("k", [] { return build_entry(4); });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_NE(entry.factor, nullptr);  // shared_ptr keeps the factor alive
  const Vec rhs(static_cast<std::size_t>(entry.matrix->rows()), 1.0);
  const Vec x = entry.factor->solve(rhs);
  EXPECT_EQ(x.size(), rhs.size());
}

}  // namespace
}  // namespace ms::la
