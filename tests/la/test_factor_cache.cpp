// The factor-specific locks on la::FactorCache: one cached factor solved
// from many threads at once, and the solve stage's one assembly per build.
// The single-flight protocol itself is tested once, in
// tests/util/test_single_flight_cache.cpp.

#include "la/factor_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "fem/dirichlet.hpp"
#include "util/fault_injector.hpp"
#include "util/team_size_scope.hpp"

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

TEST(FactorCache, ConcurrentSolvesAssembleTheOperatorOnce) {
  // fem::solve_linear runs the caller's assembler only where it reads the
  // operator: inside the single-flight build, after its cancel check and
  // fault probe, and on cg. Callers that wait on that build, hit a resident
  // factor, or claim a build that an injected fault aborts never assemble.
  // Each solve factors as a team of one, so no OpenMP workers run.
  constexpr idx_t kM = 6;
  constexpr int kThreads = 4;
  constexpr const char* kStage = "factor_cache_test";
  const CsrMatrix whole = laplacian_2d(kM);
  fem::DirichletBc bc;  // the first grid row held at 1
  for (idx_t i = 0; i < kM; ++i) bc.add(i, 1.0);
  const fem::DirichletSplit split(kM * kM, bc);
  Vec rhs(static_cast<std::size_t>(kM * kM));
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = std::sin(0.3 * static_cast<double>(i));

  std::atomic<int> calls{0};
  const fem::AssembleOperator assemble = [&] {
    // The first call lingers, so the other threads arrive while it builds.
    if (calls.fetch_add(1) == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return split.extract(whole);
  };
  const core::CancelToken never_cancelled;
  const auto solve = [&](FactorCache* cache, const std::string& key, const char* method,
                         fem::SolveStats& stats) {
    const testutil::TeamSizeScope serial(1);
    return fem::solve_linear(assemble, {rhs}, split, {method, "jacobi", 1e-12, 1000},
                             {cache, key, never_cancelled, kStage}, stats)
        .front();
  };
  std::atomic<int> unexpected{0};  // any other exception a solving thread caught
  const auto solve_concurrently = [&](FactorCache& cache, const std::string& key,
                                      std::vector<Vec>& x, std::vector<fem::SolveStats>& stats,
                                      std::atomic<int>& failures) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          x[t] = solve(&cache, key, "direct", stats[t]);
        } catch (const util::InjectedFault&) {
          failures.fetch_add(1);
        } catch (...) {
          unexpected.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };

  fem::SolveStats uncached_stats;
  const Vec expected = solve(nullptr, "", "direct", uncached_stats);
  ASSERT_EQ(calls.load(), 1);

  // One build among concurrent callers of one key: one assembly, and every
  // caller solves bit for bit alike. Only the build's record times it.
  FactorCache cache;
  calls = 0;
  std::vector<Vec> x(kThreads);
  std::vector<fem::SolveStats> stats(kThreads);
  std::atomic<int> failures{0};
  solve_concurrently(cache, "k", x, stats, failures);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  int builds = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(x[t], expected) << "thread " << t;
    builds += stats[t].num_factorizations;
    if (stats[t].num_factorizations == 1) {
      EXPECT_GT(stats[t].assemble_seconds, 0.0) << "thread " << t;
    } else {
      EXPECT_EQ(stats[t].assemble_seconds, 0.0) << "thread " << t;
    }
  }
  EXPECT_EQ(builds, 1);

  // A resident key never assembles.
  calls = 0;
  fem::SolveStats warm_stats;
  EXPECT_EQ(solve(&cache, "k", "direct", warm_stats), expected);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(warm_stats.assemble_seconds, 0.0);

  // Without a cache every solve assembles once, and so does cg, which does
  // not read the cache.
  calls = 0;
  fem::SolveStats solo_stats;
  EXPECT_EQ(solve(nullptr, "", "direct", solo_stats), expected);
  EXPECT_EQ(solve(nullptr, "", "direct", solo_stats), expected);
  EXPECT_EQ(calls.load(), 2);
  fem::SolveStats cg_stats;
  const Vec cg_x = solve(&cache, "k", "cg", cg_stats);
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(cg_x.size(), expected.size());
  for (std::size_t i = 0; i < cg_x.size(); ++i) EXPECT_NEAR(cg_x[i], expected[i], 1e-9) << i;

  // A one-shot fault at the build's probe: the failing claimer throws before
  // it assembles, the caller that claims the retry assembles, and every
  // other caller succeeds.
  const std::string site = std::string(kStage) + ".factor_build";
  util::FaultInjector::global().configure(site + ":throw:1:1");
  FactorCache faulted;
  calls = 0;
  x.assign(kThreads, Vec());
  stats.assign(kThreads, fem::SolveStats{});
  solve_concurrently(faulted, "f", x, stats, failures);
  const std::uint64_t fired = util::FaultInjector::global().fired_count(site.c_str());
  util::FaultInjector::global().reset();
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(calls.load(), 1);
  int solved = 0;
  for (int t = 0; t < kThreads; ++t) {
    if (x[t].empty()) continue;
    EXPECT_EQ(x[t], expected) << "thread " << t;
    ++solved;
  }
  EXPECT_EQ(solved, kThreads - 1);
}

}  // namespace
}  // namespace ms::la
