// simulate(spec) locks for the spec fields whose meaning is "same as the
// config": an overridden transient time step or sub-model ΔT must reproduce
// the config-driven run bit for bit (fields compared with ==, no tolerance),
// overrides must not rebuild the one-shot local stage, and a sub-model that
// brings its own boundary data must not build the demo package.

#include <gtest/gtest.h>

#include <array>

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
  return config;
}

void expect_bitwise(const core::ArrayResult& a, const core::ArrayResult& b) {
  EXPECT_EQ(a.region_blocks_x, b.region_blocks_x);
  EXPECT_EQ(a.region_blocks_y, b.region_blocks_y);
  EXPECT_EQ(a.von_mises, b.von_mises);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.solution, b.solution);
}

ScenarioSpec transient_spec() {
  ScenarioSpec spec;
  spec.analysis = AnalysisKind::kTransient;
  spec.load = LoadKind::kTrace;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.power.background = 25.0;
  spec.trace.period = 6e-5;
  spec.trace.duty = 0.5;
  spec.trace.cycles = 1;
  return spec;
}

/// Sub-model spec with its own (linear) boundary data: no package is read.
ScenarioSpec displacement_submodel_spec() {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSubmodel;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.displacement = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-4 * p.x, 1e-4 * p.y, -2e-4 * p.z};
  };
  return spec;
}

TEST(SimulateSpec, TimeStepOverrideMatchesAdjustedConfig) {
  // A per-spec time_step override must be bit-identical to a simulator
  // whose config carries that step outright.
  core::SimulationConfig adjusted = small_config();
  adjusted.coupling.transient.time_step = 1.5e-5;
  core::MoreStressSimulator reference(adjusted);
  const ScenarioResult expected = reference.simulate(transient_spec());

  core::MoreStressSimulator sim(small_config());
  ScenarioSpec spec = transient_spec();
  spec.time_step = 1.5e-5;
  const ScenarioResult result = sim.simulate(spec);
  ASSERT_NE(result.transient, nullptr);
  ASSERT_NE(expected.transient, nullptr);
  expect_bitwise(*result.transient, *expected.transient);
  EXPECT_EQ(result.transient->transient.times, expected.transient->transient.times);
  EXPECT_EQ(result.transient->envelope_load.values(),
            expected.transient->envelope_load.values());
}

TEST(SimulateSpec, TimeStepOverridesRunTheLocalStageOnce) {
  // No model cache attached: the simulator's own models must serve every
  // overridden query, so the local stage runs for the first query only.
  core::MoreStressSimulator sim(small_config());
  const obs::Histogram& stages =
      obs::MetricRegistry::global().histogram("rom.local.stage_seconds");
  const std::int64_t before = stages.count();
  for (double step : {1.5e-5, 2.0e-5}) {
    ScenarioSpec spec = transient_spec();
    spec.time_step = step;
    ASSERT_NE(sim.simulate(spec).transient, nullptr);
  }
  EXPECT_EQ(stages.count() - before, 1);
  EXPECT_EQ(sim.prepare_local_stage(false), 0.0);
}

TEST(SimulateSpec, SubmodelDeltaTEqualToConfigMatchesDefault) {
  // delta_t == config.thermal_load and an unset delta_t are the same query.
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);
  ScenarioSpec spec = displacement_submodel_spec();
  const ScenarioResult defaulted = sim.simulate(spec);
  spec.delta_t = config.thermal_load;
  const ScenarioResult explicit_dt = sim.simulate(spec);
  ASSERT_NE(defaulted.array, nullptr);
  ASSERT_NE(explicit_dt.array, nullptr);
  expect_bitwise(*explicit_dt.array, *defaulted.array);
}

TEST(SimulateSpec, DisplacementSubmodelBuildsNoPackage) {
  // Building the demo package is a coarse FEM solve; a uniform sub-model
  // with its own boundary data never reads it, directly or via the engine.
  const ScenarioSpec spec = displacement_submodel_spec();
  ASSERT_FALSE(spec.reads_package());
  const obs::Counter& fem_solves = obs::MetricRegistry::global().counter("fem.solves");

  core::MoreStressSimulator sim(small_config());
  std::int64_t before = fem_solves.value();
  ASSERT_NE(sim.simulate(spec).array, nullptr);
  EXPECT_EQ(fem_solves.value(), before);

  SweepOptions options;
  options.config = small_config();
  options.num_threads = 1;
  SweepEngine engine(options);
  before = fem_solves.value();
  const std::vector<ScenarioResult> rows = engine.run({spec});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, ScenarioStatus::kOk);
  EXPECT_EQ(fem_solves.value(), before);
}

}  // namespace
}  // namespace ms::sweep
