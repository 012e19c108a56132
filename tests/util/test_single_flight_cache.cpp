// The single-flight protocol behind la::FactorCache, rom::ModelCache and the
// sweep engine's package memo, tested once on a plain value type. The TSan
// CI job runs this suite: every contention test here races real threads.

#include "util/single_flight_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"

namespace ms::util {
namespace {

using Value = std::shared_ptr<const int>;
using Cache = SingleFlightCache<Value>;

Value make_value(int v) { return std::make_shared<const int>(v); }

/// A builder slow enough that racing threads find its slot pending.
Value slow_value(int v) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return make_value(v);
}

TEST(SingleFlightCache, MissBuildsThenHitsShareOneValue) {
  Cache cache("test.value_cache");
  EXPECT_FALSE(cache.contains("k"));
  const Value first = cache.get_or_create("k", [] { return make_value(1); });
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const Value second = cache.get_or_create("k", [] { return make_value(2); });
  const Value third = cache.get_or_create("k", [] { return make_value(3); });
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(third.get(), first.get());
  EXPECT_EQ(*third, 1);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SingleFlightCache, DistinctKeysBuildDistinctEntries) {
  Cache cache("test.value_cache");
  const Value a = cache.get_or_create("a", [] { return make_value(1); });
  const Value b = cache.get_or_create("b", [] { return make_value(2); });
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SingleFlightCache, SingleFlightUnderContention) {
  // Many threads race on one absent key: exactly one builder run, everyone
  // gets the same value, so build counts stay deterministic.
  Cache cache("test.value_cache");
  std::atomic<int> builds{0};
  std::atomic<int> built_flags{0};
  constexpr int kThreads = 8;
  std::vector<const int*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool built = false;
      const Value value = cache.get_or_create(
          "shared",
          [&] {
            builds.fetch_add(1);
            return slow_value(7);
          },
          &built);
      if (built) built_flags.fetch_add(1);
      seen[static_cast<std::size_t>(t)] = value.get();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_flags.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SingleFlightCache, ThrowingBuilderClearsSlotForRetry) {
  Cache cache("test.value_cache");
  EXPECT_THROW(cache.get_or_create("k", []() -> Value { throw std::runtime_error("failed"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_EQ(cache.size(), 0u);
  // The failed build left no slot behind; the next caller builds cleanly.
  const Value value = cache.get_or_create("k", [] { return make_value(4); });
  EXPECT_EQ(*value, 4);
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SingleFlightCache, WaitersRetryAfterBuilderFailure) {
  // Contention on one key whose FIRST builder invocation throws: the failed
  // claimant must erase its pending slot (not poison it), the waiters race
  // to claim the retry, exactly one rebuilds, and everyone else shares the
  // rebuilt value. Cancelled and fault-injected sweep queries lean on this:
  // a thrown builder never wedges later scenarios.
  Cache cache("test.value_cache");
  std::atomic<int> attempts{0};
  std::atomic<int> exceptions{0};
  std::atomic<int> successes{0};
  constexpr int kThreads = 8;
  std::vector<const int*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        const Value value = cache.get_or_create("shared", [&] {
          if (attempts.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("injected build failure");
          }
          return make_value(8);
        });
        successes.fetch_add(1);
        seen[static_cast<std::size_t>(t)] = value.get();
      } catch (const std::runtime_error&) {
        exceptions.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one thread saw the failure; every other got the one rebuilt
  // value. Two claims total (failed + retry), the rest were hits.
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(exceptions.load(), 1);
  EXPECT_EQ(successes.load(), kThreads - 1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 2));
  EXPECT_EQ(cache.size(), 1u);
  const int* shared = nullptr;
  for (const int* value : seen) {
    if (value == nullptr) continue;
    if (shared == nullptr) shared = value;
    EXPECT_EQ(value, shared);
  }
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, 8);
}

TEST(SingleFlightCache, ClearDropsEntriesButCallersKeepTheirs) {
  Cache cache("test.value_cache");
  const Value value = cache.get_or_create("k", [] { return make_value(5); });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_EQ(*value, 5);  // the caller's shared_ptr keeps the value alive
  const Value rebuilt = cache.get_or_create("k", [] { return make_value(6); });
  EXPECT_EQ(*rebuilt, 6);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SingleFlightCache, BuiltReportsWhetherThisCallRanTheBuilder) {
  Cache cache("test.value_cache");
  bool built = false;
  (void)cache.get_or_create("k", [] { return make_value(1); }, &built);
  EXPECT_TRUE(built);
  (void)cache.get_or_create("k", [] { return make_value(1); }, &built);
  EXPECT_FALSE(built);
  cache.clear();
  (void)cache.get_or_create("k", [] { return make_value(1); }, &built);
  EXPECT_TRUE(built);
}

TEST(SingleFlightCache, RecordsTrafficUnderItsMetricNameInRegistryAndQueryScope) {
  // Registry names carry the full metric name; the query scope drops the
  // subsystem prefix, as "la.factor_cache.hits" -> "factor_cache.hits".
  auto& registry = obs::MetricRegistry::global();
  const auto registered = [&registry](const char* event) {
    return registry.counter_value(std::string("test.naming_cache.") + event);
  };
  const std::int64_t hits0 = registered("hits");
  const std::int64_t misses0 = registered("misses");
  const std::int64_t failures0 = registered("build_failures");

  Cache cache("test.naming_cache");
  obs::QueryTelemetry telemetry;
  {
    const obs::QueryScope scope(telemetry);
    (void)cache.get_or_create("k", [] { return make_value(1); });
    (void)cache.get_or_create("k", [] { return make_value(1); });
    EXPECT_THROW(
        cache.get_or_create("bad", []() -> Value { throw std::runtime_error("failed"); }),
        std::runtime_error);
  }
  EXPECT_EQ(registered("hits") - hits0, 1);
  EXPECT_EQ(registered("misses") - misses0, 2);
  EXPECT_EQ(registered("build_failures") - failures0, 1);
  EXPECT_EQ(telemetry.count("naming_cache.hits"), 1);
  EXPECT_EQ(telemetry.count("naming_cache.misses"), 2);
  EXPECT_EQ(telemetry.count("naming_cache.build_failures"), 1);
}

}  // namespace
}  // namespace ms::util
