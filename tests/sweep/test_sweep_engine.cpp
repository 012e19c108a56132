// Cache-correctness locks for the sweep engine: a shared-cache run must be
// bit-identical to cold per-spec runs, and the cache counters must prove the
// factorization memoization actually fired (misses = distinct operator
// structures, not scenario count).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"

namespace ms::sweep {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 10;
  // Direct solves so the factorization cache is on the hot path.
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

/// A small trace family: duty/peak variations of one 2x2 fatigue layout —
/// every scenario shares the block spec and the operator structures.
std::vector<ScenarioSpec> trace_family(int count) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "case" + std::to_string(i);
    spec.analysis = AnalysisKind::kFatigue;
    spec.load = LoadKind::kTrace;
    spec.blocks_x = 2;
    spec.blocks_y = 2;
    spec.power.background = 20.0;
    spec.power.hotspot_peak = 100.0 + 50.0 * i;
    spec.trace.period = 6e-5;
    spec.trace.duty = (i + 1.0) / (count + 1.0);
    spec.trace.cycles = 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

void expect_bitwise(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_NE(a.fatigue, nullptr);
  ASSERT_NE(b.fatigue, nullptr);
  EXPECT_EQ(a.fatigue->von_mises, b.fatigue->von_mises);
  EXPECT_EQ(a.fatigue->stress, b.fatigue->stress);
  EXPECT_EQ(a.fatigue->solution, b.fatigue->solution);
  EXPECT_EQ(a.fatigue->report.min_life_cycles, b.fatigue->report.min_life_cycles);
  EXPECT_EQ(a.min_life_log10, b.min_life_log10);
  EXPECT_EQ(a.peak_von_mises, b.peak_von_mises);
}

TEST(SweepEngine, SharedCachesAreBitIdenticalToColdRuns) {
  const std::vector<ScenarioSpec> specs = trace_family(4);

  SweepOptions cold_options;
  cold_options.config = small_config();
  cold_options.share_caches = false;
  cold_options.num_threads = 1;
  SweepEngine cold_engine(cold_options);
  SweepStats cold_stats;
  const std::vector<ScenarioResult> cold = cold_engine.run(specs, &cold_stats);
  // share_caches = false keeps every query off the caches entirely.
  EXPECT_EQ(cold_stats.factor_cache_hits + cold_stats.factor_cache_misses, 0u);
  EXPECT_EQ(cold_stats.model_cache_hits + cold_stats.model_cache_misses, 0u);

  SweepOptions warm_options;
  warm_options.config = small_config();
  warm_options.share_caches = true;
  warm_options.num_threads = 2;
  SweepEngine warm_engine(warm_options);
  auto& registry = obs::MetricRegistry::global();
  const std::int64_t factor_misses0 = registry.counter_value("la.factor_cache.misses");
  const std::int64_t model_misses0 = registry.counter_value("rom.model_cache.misses");
  SweepStats warm_stats;
  const std::vector<ScenarioResult> warm = warm_engine.run(specs, &warm_stats);

  ASSERT_EQ(cold.size(), specs.size());
  ASSERT_EQ(warm.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(warm[i].name, specs[i].name);  // run() preserves input order
    expect_bitwise(warm[i], cold[i]);
  }

  // Memoization proof: one ROM model build, and factorization misses equal
  // the two distinct operator structures of this family (global stiffness +
  // transient conduction stepper), NOT the scenario count.
  EXPECT_EQ(warm_stats.model_cache_misses, 1u);
  EXPECT_EQ(warm_stats.model_cache_hits, static_cast<std::uint64_t>(specs.size() - 1));
  EXPECT_EQ(warm_stats.factor_cache_misses, 2u);
  EXPECT_EQ(warm_stats.factor_cache_hits,
            static_cast<std::uint64_t>(2 * specs.size() - 2));
  // The registry records each cache under its own metric name.
  EXPECT_EQ(registry.counter_value("la.factor_cache.misses") - factor_misses0, 2);
  EXPECT_EQ(registry.counter_value("rom.model_cache.misses") - model_misses0, 1);

  // GlobalSolveStats agrees: only the first scenario factorized.
  std::int64_t factorizations = 0;
  for (const ScenarioResult& r : warm) {
    factorizations += r.fatigue->stats.solve.num_factorizations;
  }
  EXPECT_EQ(factorizations, 1);
}

TEST(SweepEngine, SubmodelScenariosShareOneDemoPackage) {
  // Sub-model specs without a package payload run in the engine's demo
  // package: one coarse package solve per padded size, shared by every row,
  // each row bit-identical to a cache-less simulate(spec) that builds its
  // own package.
  std::vector<ScenarioSpec> specs;
  for (int location = 1; location <= 4; ++location) {
    ScenarioSpec spec;
    spec.name = "loc" + std::to_string(location);
    spec.kind = ScenarioKind::kSubmodel;
    spec.blocks_x = 2;
    spec.blocks_y = 2;
    spec.dummy_rings = 1;
    spec.location = location;
    specs.push_back(std::move(spec));
  }
  auto& registry = obs::MetricRegistry::global();
  const std::int64_t misses0 = registry.counter_value("sweep.package_cache.misses");
  const std::int64_t hits0 = registry.counter_value("sweep.package_cache.hits");

  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);
  const std::vector<ScenarioResult> rows = engine.run(specs);

  EXPECT_EQ(registry.counter_value("sweep.package_cache.misses") - misses0, 1);
  EXPECT_EQ(registry.counter_value("sweep.package_cache.hits") - hits0, 3);
  ASSERT_EQ(rows.size(), specs.size());
  std::int64_t row_misses = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_NE(rows[i].array, nullptr) << specs[i].name;
    row_misses += rows[i].telemetry.count("package_cache.misses");
    core::MoreStressSimulator cold(small_config());
    const ScenarioResult expected = cold.simulate(specs[i]);
    EXPECT_EQ(rows[i].array->von_mises, expected.array->von_mises) << specs[i].name;
    EXPECT_EQ(rows[i].array->stress, expected.array->stress) << specs[i].name;
    EXPECT_EQ(rows[i].array->solution, expected.array->solution) << specs[i].name;
  }
  EXPECT_EQ(row_misses, 1);
}

TEST(SweepEngine, RunMarksTheParetoFrontier) {
  SweepOptions options;
  options.config = small_config();
  SweepEngine engine(options);
  const std::vector<ScenarioResult> results = engine.run(trace_family(3));
  int pareto = 0;
  for (const ScenarioResult& r : results) pareto += r.pareto_optimal ? 1 : 0;
  EXPECT_GE(pareto, 1);  // the frontier is never empty
}

TEST(SweepEngine, EnqueueResolvesFutures) {
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);

  ScenarioSpec spec;
  spec.name = "async";
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  std::future<ScenarioResult> future = engine.enqueue(spec);
  const ScenarioResult result = future.get();
  EXPECT_EQ(result.name, "async");
  ASSERT_NE(result.array, nullptr);
  EXPECT_GT(result.peak_von_mises, 0.0);
  EXPECT_FALSE(result.pareto_optimal);  // a property of run() tables only
}

TEST(SweepEngine, ExceptionsPropagateThroughFutures) {
  SweepOptions options;
  options.config = small_config();
  SweepEngine engine(options);

  ScenarioSpec bad;
  bad.blocks_x = 0;  // validate() rejects inside the worker
  std::future<ScenarioResult> future = engine.enqueue(bad);
  EXPECT_THROW((void)future.get(), std::invalid_argument);

  // run() isolates the failure into its row instead of throwing: the batch
  // completes and the error is classified as an invalid spec.
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run({bad}, &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_TRUE(results[0].failed());
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kInvalidSpec);
  EXPECT_FALSE(results[0].error.message.empty());
  EXPECT_FALSE(results[0].pareto_optimal);
  EXPECT_EQ(stats.num_failed, 1);
}

}  // namespace
}  // namespace ms::sweep
