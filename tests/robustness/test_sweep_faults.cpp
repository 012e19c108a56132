// Fault-tolerant sweep service, end to end: 64-scenario batches driven
// through injected builder throws, NaN payloads, SPD breakdowns, deadlines,
// and failure budgets. The locks: the batch always completes with
// per-scenario statuses, the cache hit/miss counters stay exact (a failed
// build re-runs, nothing else shifts), and every healthy row is bit-identical
// to the fault-free run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_error.hpp"
#include "core/simulator.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/fault_injector.hpp"

namespace ms::sweep {
namespace {

constexpr int kBatch = 64;

core::SimulationConfig small_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 10;
  config.global.method = "direct";  // the factor cache is on the hot path
  config.coupling.solve.method = "direct";
  return config;
}

/// 64 steady uniform-ΔT scenarios over one 2x2 block spec: every scenario
/// shares the ROM model and the global operator structure, so the warm
/// cache counters are exact and single-valued.
std::vector<ScenarioSpec> steady_family(int count) {
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "dt" + std::to_string(i);
    spec.blocks_x = 2;
    spec.blocks_y = 2;
    spec.delta_t = -150.0 - i;  // load varies; the operator does not
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Deterministic engine: one worker, FIFO, shared caches.
SweepOptions serial_options() {
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 1;
  return options;
}

void expect_bitwise(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_NE(a.array, nullptr);
  ASSERT_NE(b.array, nullptr);
  EXPECT_EQ(a.array->von_mises, b.array->von_mises);
  EXPECT_EQ(a.array->solution, b.array->solution);
  EXPECT_EQ(a.peak_von_mises, b.peak_von_mises);
}

/// The fault-free reference batch (fresh engine, same options).
std::vector<ScenarioResult> reference_run(const std::vector<ScenarioSpec>& specs,
                                          SweepStats* stats) {
  util::FaultInjector::global().reset();
  SweepEngine engine(serial_options());
  return engine.run(specs, stats);
}

TEST(SweepFaults, InjectedBuilderThrowFailsOneRowAndBatchCompletes) {
  const std::vector<ScenarioSpec> specs = steady_family(kBatch);
  SweepStats ref_stats;
  const std::vector<ScenarioResult> reference = reference_run(specs, &ref_stats);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kBatch));
  EXPECT_EQ(ref_stats.num_failed, 0);
  // The family shares one ROM model and one global factor.
  EXPECT_EQ(ref_stats.model_cache_misses, 1u);
  EXPECT_EQ(ref_stats.model_cache_hits, static_cast<std::uint64_t>(kBatch - 1));
  EXPECT_EQ(ref_stats.factor_cache_misses, 1u);
  EXPECT_EQ(ref_stats.factor_cache_hits, static_cast<std::uint64_t>(kBatch - 1));

  // Scenario 0's global-factor builder throws (budget 1); with one FIFO
  // worker every later scenario must be untouched.
  util::FaultInjector::global().configure("rom.global.factor_build:throw:1:1");
  SweepEngine faulted_engine(serial_options());
  SweepStats stats;
  const std::vector<ScenarioResult> results = faulted_engine.run(specs, &stats);
  EXPECT_EQ(util::FaultInjector::global().fired_count("rom.global.factor_build"), 1u);
  util::FaultInjector::global().reset();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBatch));
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kFaultInjected);
  EXPECT_EQ(results[0].error.stage, "rom.global.factor_build");
  EXPECT_FALSE(results[0].pareto_optimal);
  for (int i = 1; i < kBatch; ++i) {
    ASSERT_EQ(results[static_cast<std::size_t>(i)].status, ScenarioStatus::kOk) << "row " << i;
    expect_bitwise(results[static_cast<std::size_t>(i)],
                   reference[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(stats.num_failed, 1);
  EXPECT_EQ(stats.num_degraded, 0);

  // Exact counter accounting: the failed claim counts a miss and clears its
  // slot, scenario 1 re-claims the build, everything later still hits.
  EXPECT_EQ(stats.factor_cache_misses, ref_stats.factor_cache_misses + 1);
  EXPECT_EQ(stats.factor_cache_hits, ref_stats.factor_cache_hits - 1);
  EXPECT_EQ(stats.model_cache_misses, ref_stats.model_cache_misses);
  EXPECT_EQ(stats.model_cache_hits, ref_stats.model_cache_hits);
}

TEST(SweepFaults, GlobalCgAtIterationCapFailsTheRow) {
  // A CG global solve that runs out of iterations is a failed row, classified
  // like the steady conduction path's cap, never an ok row carrying the
  // unconverged field.
  util::FaultInjector::global().reset();
  SweepOptions options = serial_options();
  options.config.global.method = "cg";
  options.config.global.max_iterations = 2;
  ScenarioSpec spec;
  spec.name = "capped";
  spec.blocks_x = 3;
  spec.blocks_y = 3;
  SweepEngine engine(options);
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run({spec}, &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kDidNotConverge);
  EXPECT_EQ(results[0].error.stage, "rom.global.solve");
  EXPECT_EQ(stats.num_failed, 1);
}

TEST(SweepFaults, FactorBuildProbeFiresOnACachelessSimulator) {
  // A simulator with no factor cache builds its global factor through the
  // same builder the cache runs, so the build probe fires there too.
  core::MoreStressSimulator sim(small_config());
  const ScenarioSpec spec = steady_family(1).front();
  util::FaultInjector::global().configure("rom.global.factor_build:throw:1:1");
  std::string site;
  try {
    (void)sim.simulate(spec);
  } catch (const util::InjectedFault& e) {
    site = e.site();
  }
  const std::uint64_t fired = util::FaultInjector::global().fired_count("rom.global.factor_build");
  util::FaultInjector::global().reset();
  EXPECT_EQ(site, "rom.global.factor_build");
  EXPECT_EQ(fired, 1u);
}

TEST(SweepFaults, NanPayloadFailsClassifiedAndLeavesCacheCountersAlone) {
  const std::vector<ScenarioSpec> specs = steady_family(kBatch);
  SweepStats ref_stats;
  const std::vector<ScenarioResult> reference = reference_run(specs, &ref_stats);

  // Scenario 0's global solve output is poisoned with one NaN *after* the
  // factor was built and cached — the health sweep at the stage boundary
  // must classify it, and the warm cache is untouched for later rows.
  util::FaultInjector::global().configure("rom.global.solve:nan:1:1");
  SweepEngine engine(serial_options());
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(specs, &stats);
  util::FaultInjector::global().reset();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBatch));
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kNonFiniteField);
  EXPECT_EQ(results[0].error.stage, "global.solve");
  for (int i = 1; i < kBatch; ++i) {
    ASSERT_EQ(results[static_cast<std::size_t>(i)].status, ScenarioStatus::kOk) << "row " << i;
    expect_bitwise(results[static_cast<std::size_t>(i)],
                   reference[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(stats.num_failed, 1);
  // The build succeeded before the poison hit: counters match the reference.
  EXPECT_EQ(stats.factor_cache_misses, ref_stats.factor_cache_misses);
  EXPECT_EQ(stats.factor_cache_hits, ref_stats.factor_cache_hits);
  EXPECT_EQ(stats.model_cache_misses, ref_stats.model_cache_misses);
  EXPECT_EQ(stats.model_cache_hits, ref_stats.model_cache_hits);
}

TEST(SweepFaults, SpdBreakdownDegradesButCompletesEveryRow) {
  const std::vector<ScenarioSpec> specs = steady_family(8);

  // The first global factorization hits a (simulated) pivot breakdown; the
  // shift-retry ladder rescues it. The shifted factor lands in the shared
  // cache, so every row of the batch reports degraded with the same shift.
  util::FaultInjector::global().configure("rom.global.factor:spd:1:1");
  SweepEngine engine(serial_options());
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(specs, &stats);
  util::FaultInjector::global().reset();

  ASSERT_EQ(results.size(), 8u);
  for (const ScenarioResult& r : results) {
    EXPECT_EQ(r.status, ScenarioStatus::kDegraded) << r.name;
    EXPECT_GT(r.diagonal_shift, 0.0);
    EXPECT_EQ(r.diagonal_shift, results[0].diagonal_shift);  // one shared factor
    ASSERT_NE(r.array, nullptr);  // degraded rows carry a full payload
    EXPECT_GT(r.peak_von_mises, 0.0);
  }
  EXPECT_EQ(stats.num_failed, 0);
  EXPECT_EQ(stats.num_degraded, 8);
  // Degraded rows still compete for the Pareto frontier.
  int pareto = 0;
  for (const ScenarioResult& r : results) pareto += r.pareto_optimal ? 1 : 0;
  EXPECT_GE(pareto, 1);
}

TEST(SweepFaults, WorkerProbeFailsScenarioWithFaultInjectedCode) {
  util::FaultInjector::global().configure("sweep.worker:throw:1:1");
  SweepEngine engine(serial_options());
  const std::vector<ScenarioResult> results = engine.run(steady_family(3));
  util::FaultInjector::global().reset();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kFaultInjected);
  EXPECT_EQ(results[0].error.stage, "sweep.worker");
  EXPECT_EQ(results[1].status, ScenarioStatus::kOk);
  EXPECT_EQ(results[2].status, ScenarioStatus::kOk);
}

TEST(SweepFaults, NumericPhaseFaultKeepsItsClassification) {
  // The first panel the numeric phase factors throws from inside an OpenMP
  // region. The exception must reach the row unchanged: fault-injected at
  // its probe, not a pivot breakdown that the shift-retry ladder refactors.
  util::FaultInjector::global().configure("la.numeric:throw:1:1");
  SweepEngine engine(serial_options());
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(steady_family(3), &stats);
  const std::uint64_t fired = util::FaultInjector::global().fired_count("la.numeric");
  util::FaultInjector::global().reset();

  EXPECT_EQ(fired, 1u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, ScenarioStatus::kFailed);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kFaultInjected);
  EXPECT_EQ(results[0].error.stage, "la.numeric");
  EXPECT_EQ(results[1].status, ScenarioStatus::kOk);
  EXPECT_EQ(results[2].status, ScenarioStatus::kOk);
  EXPECT_EQ(stats.num_degraded, 0);
}

TEST(SweepFaults, ExpiredDeadlineFailsEveryRowWithoutKillingTheBatch) {
  util::FaultInjector::global().reset();
  SweepOptions options = serial_options();
  options.deadline_seconds = 1e-9;  // expires before the first check point
  SweepEngine engine(options);
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(steady_family(6), &stats);

  ASSERT_EQ(results.size(), 6u);
  for (const ScenarioResult& r : results) {
    EXPECT_EQ(r.status, ScenarioStatus::kFailed) << r.name;
    EXPECT_EQ(r.error.code, core::SimErrorCode::kDeadlineExceeded) << r.name;
  }
  EXPECT_EQ(stats.num_failed, 6);
}

TEST(SweepFaults, MaxFailuresTripsBatchCancellation) {
  util::FaultInjector::global().reset();
  SweepOptions options = serial_options();
  options.max_failures = 1;
  SweepEngine engine(options);

  // Every spec is invalid; with one FIFO worker, failures accumulate in
  // order: rows 0 and 1 spend the budget, rows 2+ are cancelled unstarted.
  std::vector<ScenarioSpec> specs = steady_family(6);
  for (ScenarioSpec& spec : specs) spec.blocks_x = 0;
  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(specs, &stats);

  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].error.code, core::SimErrorCode::kInvalidSpec);
  EXPECT_EQ(results[1].error.code, core::SimErrorCode::kInvalidSpec);
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(results[i].status, ScenarioStatus::kFailed) << "row " << i;
    EXPECT_EQ(results[i].error.code, core::SimErrorCode::kCancelled) << "row " << i;
  }
  EXPECT_EQ(stats.num_failed, 6);
}

TEST(SweepFaults, EnqueueStillPropagatesRawExceptions) {
  // The async API keeps exception semantics: no row-folding, the future
  // rethrows the injected fault itself.
  util::FaultInjector::global().configure("sweep.worker:throw:1:1");
  SweepEngine engine(serial_options());
  ScenarioSpec spec = steady_family(1)[0];
  EXPECT_THROW((void)engine.enqueue(spec).get(), util::InjectedFault);
  util::FaultInjector::global().reset();
}

}  // namespace
}  // namespace ms::sweep
