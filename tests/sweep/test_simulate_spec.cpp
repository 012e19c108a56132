// simulate(spec) locks for the spec fields whose meaning is "same as the
// config": an overridden transient time step or sub-model ΔT must reproduce
// the config-driven run bit for bit (fields compared with ==, no tolerance),
// overrides must not rebuild the one-shot local stage, and a sub-model that
// brings its own boundary data must not build the demo package.

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "chiplet/package_thermal.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::sweep {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 10;
  return config;
}

/// memcmp equality: unlike ==, tells -0.0 from 0.0 and compares NaN bits.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
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

/// A thermal stage composed from the public layer calls, as a caller outside
/// the simulator (the benchmark's layer-by-layer replay) builds it.
struct LayerDomain {
  mesh::HexMesh mesh;
  thermal::ConductivityField conductivity;
  la::Vec capacity;
  thermal::BlockReduction reduction;
};

/// Runs `spec` steady under its power map and transient under its square
/// wave, and compares every thermal payload with `domain`'s layer calls.
void expect_thermal_stage_matches(core::MoreStressSimulator& sim, ScenarioSpec spec,
                                  const LayerDomain& domain, const thermal::PowerMap& power) {
  const core::ThermalCouplingOptions& coupling = sim.config().coupling;
  const thermal::BlockReduction& reduction = domain.reduction;

  spec.analysis = AnalysisKind::kSteady;
  spec.load = LoadKind::kPower;
  const ScenarioResult steady = sim.simulate(spec);
  ASSERT_NE(steady.thermal, nullptr);
  const thermal::TemperatureField field =
      thermal::solve_power_map(domain.mesh, domain.conductivity, power, coupling.solve);
  std::vector<double> delta_t =
      reduction.windowed
          ? field.block_averages(reduction.blocks_x, reduction.blocks_y, reduction.pitch,
                                 reduction.origin, reduction.z0, reduction.z1)
          : thermal::BlockAverager(domain.mesh, reduction.blocks_x, reduction.blocks_y,
                                   reduction.pitch)
                .reduce(field.nodal());
  for (double& dt : delta_t) dt -= reduction.reference;
  EXPECT_TRUE(same_bits(steady.thermal->temperature.nodal(), field.nodal()));
  EXPECT_TRUE(same_bits(steady.thermal->load.values(), delta_t));

  spec.analysis = AnalysisKind::kTransient;
  spec.load = LoadKind::kTrace;
  const ScenarioResult transient = sim.simulate(spec);
  ASSERT_NE(transient.transient, nullptr);
  thermal::TransientSolveOptions options = coupling.transient;
  options.base = coupling.solve;
  const thermal::TransientTemperatureResult expected = thermal::solve_power_trace(
      domain.mesh, domain.conductivity, domain.capacity, make_power_trace(spec, power),
      reduction, options);
  const thermal::TransientTemperatureResult& got = transient.transient->transient;
  ASSERT_EQ(got.block_delta_t.size(), expected.block_delta_t.size());
  for (std::size_t r = 0; r < expected.block_delta_t.size(); ++r) {
    EXPECT_TRUE(same_bits(got.block_delta_t[r], expected.block_delta_t[r])) << "record " << r;
  }
  EXPECT_TRUE(same_bits(got.peak_envelope, expected.peak_envelope));
  EXPECT_TRUE(same_bits(got.final_field.nodal(), expected.final_field.nodal()));
}

TEST(SimulateSpec, ThermalStageMatchesLayerCallsBitwise) {
  // The array's own conduction mesh and the package stack around a padded
  // sub-model window, each steady and transient: simulate(spec) must give
  // the layer calls' payloads bit for bit. Coarse conduction meshes keep it
  // quick; the lock holds at any resolution.
  core::SimulationConfig config = small_config();
  config.coupling.elems_z = 4;
  config.coupling.package_coarse_elems_xy = 8;
  const core::ThermalCouplingOptions& coupling = config.coupling;
  const double pitch = config.geometry.pitch;
  core::MoreStressSimulator sim(config);

  ScenarioSpec array;
  array.blocks_x = 3;
  array.blocks_y = 2;
  array.power.background = 20.0;
  array.power.hotspot_peak = 300.0;
  LayerDomain array_domain;
  array_domain.mesh = thermal::build_array_thermal_mesh(config.geometry, 3, 2,
                                                        coupling.elems_per_block_xy,
                                                        coupling.elems_z);
  array_domain.conductivity = thermal::array_block_conductivities(
      array_domain.mesh, config.geometry, config.materials, 3, 2, {}, coupling.conductivity_model);
  array_domain.capacity = thermal::array_block_capacities(
      array_domain.mesh, config.geometry, config.materials, 3, 2, {}, coupling.conductivity_model);
  array_domain.reduction.blocks_x = 3;
  array_domain.reduction.blocks_y = 2;
  array_domain.reduction.pitch = pitch;
  array_domain.reduction.reference = coupling.stress_free_temperature;
  expect_thermal_stage_matches(sim, array, array_domain, make_power_map(array, config));

  ScenarioSpec submodel = array;
  submodel.kind = ScenarioKind::kSubmodel;
  submodel.blocks_x = submodel.blocks_y = 1;
  submodel.dummy_rings = 1;
  submodel.power.hotspot_peak = 150.0;
  submodel.package = chiplet::build_demo_package(pitch, 3, config.geometry.height,
                                                 config.thermal_load);
  const chiplet::PackageGeometry& geometry = submodel.package->geometry();
  const chiplet::SubmodelPlacement placement =
      chiplet::standard_locations(geometry, pitch, 3, 3).front();
  chiplet::PackageThermalSpec thermal_spec;
  thermal_spec.elems_per_block_xy = coupling.elems_per_block_xy;
  thermal_spec.coarse_elems_xy = coupling.package_coarse_elems_xy;
  thermal_spec.elems_z_substrate = coupling.package_elems_z_substrate;
  thermal_spec.elems_z_interposer = coupling.elems_z;
  thermal_spec.elems_z_die = coupling.package_elems_z_die;
  thermal_spec.filler_conductivity = coupling.package_filler_conductivity;
  thermal_spec.conductivity_model = coupling.conductivity_model;
  chiplet::PackageThermalModel model = chiplet::build_package_thermal_model(
      geometry, config.geometry, placement, mesh::padded_tsv_mask(3, 3, 1), config.materials,
      thermal_spec);
  LayerDomain submodel_domain{std::move(model.mesh), std::move(model.conductivity),
                              std::move(model.capacity), array_domain.reduction};
  submodel_domain.reduction.blocks_x = submodel_domain.reduction.blocks_y = 3;
  submodel_domain.reduction.windowed = true;
  submodel_domain.reduction.origin = placement.origin;
  submodel_domain.reduction.z0 = geometry.interposer_z0();
  submodel_domain.reduction.z1 = geometry.interposer_z1();
  expect_thermal_stage_matches(sim, submodel, submodel_domain,
                               make_power_map(submodel, config, geometry, placement));
}

}  // namespace
}  // namespace ms::sweep
