// Scenario-2 thermal coupling: power map -> package conduction -> per-block
// ΔT in the sub-model window -> ROM sub-modeling path. Pins the degenerate
// uniform case to the scalar-ΔT sub-model scenario (mirror of the array
// regression), validates against the brute-force reference FEM via the
// shared harness, and sanity-checks the hotspot physics and input guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chiplet/package_thermal.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"
#include "util/validation_harness.hpp"

namespace ms::chiplet {
namespace {

core::SimulationConfig test_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 4;
  config.local.samples_per_block = 12;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

/// Degenerate plan-uniform package: every layer spans the full plan and the
/// sub-model window covers the whole interposer, so a uniform power map
/// produces a 1-D temperature profile and an exactly uniform per-block ΔT.
PackageGeometry slab_geometry(double plan, double interposer_z) {
  PackageGeometry g;
  g.substrate_x = g.substrate_y = plan;
  g.substrate_z = 60.0;
  g.interposer_x = g.interposer_y = plan;
  g.interposer_z = interposer_z;
  g.die_x = g.die_y = plan;
  g.die_z = 40.0;
  return g;
}

/// Small package hosting a padded window with room around it.
PackageGeometry small_package() {
  PackageGeometry g;
  g.substrate_x = g.substrate_y = 200.0;
  g.substrate_z = 60.0;
  g.interposer_x = g.interposer_y = 120.0;
  g.interposer_z = 50.0;
  g.die_x = g.die_y = 60.0;
  g.die_z = 40.0;
  return g;
}

TEST(SubmodelThermal, UniformPowerMatchesScalarDeltaTPath) {
  core::SimulationConfig config = test_config();
  const int blocks = 3;
  const double plan = blocks * config.geometry.pitch;
  const PackageGeometry geometry = slab_geometry(plan, config.geometry.height);
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{6, 6, 2, 2, 2}, config.thermal_load);
  const SubmodelPlacement placement{{0.0, 0.0, geometry.interposer_z0()}, blocks, blocks, "slab"};

  const thermal::PowerMap power(1, 1, plan, plan, 50.0);
  core::MoreStressSimulator sim(config);
  const core::ThermalResult coupled =
      *sim.simulate(specs::with_power(
                        specs::submodel_spec(blocks, blocks, /*dummy_rings=*/0, package, placement),
                        power))
           .thermal;

  // Plan-uniform stack + uniform power: the window ΔT must be uniform ...
  ASSERT_EQ(coupled.load.values().size(), static_cast<std::size_t>(blocks * blocks));
  for (double dt : coupled.load.values()) {
    EXPECT_NEAR(dt, coupled.load.values().front(), 1e-9);
  }
  EXPECT_GT(coupled.load.values().front(), 0.0);  // die sits above the sink

  // ... and the stress field must match the scalar-ΔT sub-model path run at
  // exactly that ΔT, to solver precision.
  core::SimulationConfig scalar_config = test_config();
  scalar_config.thermal_load = coupled.load.values().front();
  core::MoreStressSimulator scalar_sim(scalar_config);
  sweep::ScenarioSpec scalar_spec = specs::submodel_spec(blocks, blocks, /*dummy_rings=*/0);
  scalar_spec.displacement = [&](const mesh::Point3& p) {
    return package->displacement_at({p.x + placement.origin.x, p.y + placement.origin.y,
                                     p.z + placement.origin.z});
  };
  const core::ArrayResult scalar = *scalar_sim.simulate(scalar_spec).array;

  ASSERT_EQ(scalar.von_mises.size(), coupled.von_mises.size());
  double peak = 0.0;
  for (double v : scalar.von_mises) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < scalar.von_mises.size(); ++i) {
    EXPECT_NEAR(coupled.von_mises[i], scalar.von_mises[i], 1e-8 * peak) << "sample " << i;
  }
}

TEST(SubmodelThermal, MatchesReferenceFemWithinBand) {
  core::SimulationConfig config = test_config();
  const PackageGeometry geometry = small_package();
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{10, 10, 2, 2, 2}, config.thermal_load);
  const int tsv = 2, rings = 1;
  const int padded = tsv + 2 * rings;
  const auto locations =
      standard_locations(geometry, config.geometry.pitch, padded, padded);

  thermal::PowerMap power(8, 8, geometry.substrate_x, geometry.substrate_y, 0.0);
  power.add_rect(geometry.die_x0(), geometry.die_y0(), geometry.die_x0() + geometry.die_x,
                 geometry.die_y0() + geometry.die_y, 25.0);
  power.add_gaussian_hotspot(0.5 * geometry.substrate_x, 0.5 * geometry.substrate_y, 20.0,
                             250.0);

  const testutil::ValidationReport report = testutil::validate_submodel_thermal(
      config, package, locations[0], tsv, tsv, rings, power);
  ASSERT_FALSE(report.rom_von_mises.empty());
  // Same error source as scenario 1 (boundary interpolation) at (4,4,4)
  // nodes; the paper's sub-model errors sit in the same few-percent band.
  EXPECT_LT(report.von_mises_error, 0.08);
  ASSERT_TRUE(report.has_displacement);
  EXPECT_LT(report.displacement_error, 0.10);
}

TEST(SubmodelThermal, HotspotOverWindowHeatsNearestBlocks) {
  core::SimulationConfig config = test_config();
  config.local.samples_per_block = 6;
  const PackageGeometry geometry = small_package();
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{10, 10, 2, 2, 2}, config.thermal_load);
  const int padded = 3;
  const auto locations =
      standard_locations(geometry, config.geometry.pitch, padded, padded);
  const SubmodelPlacement& loc = locations[0];  // die-centre window

  // Hotspot directly above the window centre.
  const double cx = loc.origin.x + 1.5 * config.geometry.pitch;
  const double cy = loc.origin.y + 1.5 * config.geometry.pitch;
  thermal::PowerMap power(16, 16, geometry.substrate_x, geometry.substrate_y, 2.0);
  power.add_gaussian_hotspot(cx, cy, config.geometry.pitch, 400.0);

  core::MoreStressSimulator sim(config);
  const core::ThermalResult result =
      *sim.simulate(specs::with_power(specs::submodel_spec(padded, padded, 0, package, loc), power))
           .thermal;

  const auto& dt = result.load.values();
  ASSERT_EQ(dt.size(), 9u);
  const double centre = dt[1 * 3 + 1];
  for (std::size_t i = 0; i < dt.size(); ++i) {
    if (i != 4) {
      EXPECT_GT(centre, dt[i]) << "block " << i;
    }
  }
  EXPECT_GT(result.load.min(), 0.0);
}

TEST(SubmodelThermal, DummyRingBlocksConductLikeBulkSilicon) {
  // The package thermal model must assign bulk-Si conductivity to dummy
  // blocks and the anisotropic TSV tensor to active ones.
  core::SimulationConfig config = test_config();
  const PackageGeometry geometry = small_package();
  const int padded = 4;
  const auto locations =
      standard_locations(geometry, config.geometry.pitch, padded, padded);
  PackageThermalSpec spec;
  const PackageThermalModel model = build_package_thermal_model(
      geometry, config.geometry, locations[0], mesh::padded_tsv_mask(padded, padded, 1),
      config.materials, spec);

  const double k_si = config.materials.at(mesh::MaterialId::Silicon).conductivity;
  const thermal::BlockConductivity tsv_k = thermal::block_conductivity(
      config.geometry, config.materials, true, thermal::ConductivityModel::kTsvAware);
  // Probe one element in the dummy ring and one in the TSV core.
  const double z_mid = 0.5 * (geometry.interposer_z0() + geometry.interposer_z1());
  const auto k_at = [&](double x, double y) {
    const auto loc = model.mesh.locate({x, y, z_mid});
    return std::array<double, 2>{model.conductivity.in_plane[loc.elem],
                                 model.conductivity.through_plane[loc.elem]};
  };
  const double p = config.geometry.pitch;
  const auto ring = k_at(locations[0].origin.x + 0.5 * p, locations[0].origin.y + 0.5 * p);
  EXPECT_DOUBLE_EQ(ring[0], k_si);
  EXPECT_DOUBLE_EQ(ring[1], k_si);
  const auto core = k_at(locations[0].origin.x + 1.5 * p, locations[0].origin.y + 1.5 * p);
  EXPECT_DOUBLE_EQ(core[0], tsv_k.in_plane);
  EXPECT_DOUBLE_EQ(core[1], tsv_k.through_plane);
}

TEST(SubmodelThermal, RejectsBadInputs) {
  core::SimulationConfig config = test_config();
  const PackageGeometry geometry = small_package();
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{6, 6, 2, 2, 2}, config.thermal_load);
  const auto locations = standard_locations(geometry, config.geometry.pitch, 3, 3);
  core::MoreStressSimulator sim(config);

  const thermal::PowerMap good(4, 4, geometry.substrate_x, geometry.substrate_y, 10.0);
  const auto run = [&](int tsv, int rings, const SubmodelPlacement& placement,
                       const thermal::PowerMap& power) {
    return sim.simulate(
        specs::with_power(specs::submodel_spec(tsv, tsv, rings, package, placement), power));
  };
  // Placement covers 3x3 but tsv+rings asks for 4x4.
  EXPECT_THROW((void)run(2, 1, locations[0], good), std::invalid_argument);
  // Power map footprint must match the package plan.
  const thermal::PowerMap small(4, 4, 50.0, 50.0, 10.0);
  EXPECT_THROW((void)run(3, 0, locations[0], small), std::invalid_argument);
  // Window outside the interposer.
  const SubmodelPlacement outside{{-100.0, 0.0, geometry.interposer_z0()}, 3, 3, "bad"};
  EXPECT_THROW((void)run(3, 0, outside, good), std::invalid_argument);
}

TEST(SubmodelTransient, ConstantTraceRelaxesToSteadySubmodelPath) {
  core::SimulationConfig config = test_config();
  config.local.samples_per_block = 6;
  // The organic substrate's through-stack time constant is ~0.1 s; 40
  // backward-Euler steps of 0.1 s damp every transient mode far below the
  // comparison tolerance.
  config.coupling.transient.time_step = 0.1;
  const PackageGeometry geometry = small_package();
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{10, 10, 2, 2, 2}, config.thermal_load);
  const int padded = 3;
  const auto locations = standard_locations(geometry, config.geometry.pitch, padded, padded);
  const SubmodelPlacement& loc = locations[0];

  thermal::PowerMap power(8, 8, geometry.substrate_x, geometry.substrate_y, 1.0);
  power.add_gaussian_hotspot(loc.origin.x + 1.5 * config.geometry.pitch,
                             loc.origin.y + 1.5 * config.geometry.pitch,
                             config.geometry.pitch, 150.0);

  core::MoreStressSimulator sim(config);
  const sweep::ScenarioSpec window = specs::submodel_spec(padded, padded, 0, package, loc);
  const core::ThermalResult steady = *sim.simulate(specs::with_power(window, power)).thermal;
  const core::TransientResult transient =
      *sim.simulate(specs::with_trace(window, thermal::PowerTrace::constant(power, 4.0)))
           .transient;

  // The windowed per-step reduction relaxes to the steady windowed ΔT ...
  const auto& steady_dt = steady.load.values();
  const auto& envelope_dt = transient.envelope_load.values();
  ASSERT_EQ(envelope_dt.size(), steady_dt.size());
  double dt_scale = 0.0;
  for (double dt : steady_dt) dt_scale = std::max(dt_scale, std::abs(dt));
  ASSERT_GT(dt_scale, 0.0);
  for (std::size_t b = 0; b < steady_dt.size(); ++b) {
    EXPECT_NEAR(envelope_dt[b], steady_dt[b], 1e-6 * dt_scale) << "block " << b;
  }

  // ... and so does the envelope-driven stress field.
  double peak = 0.0;
  for (double v : steady.von_mises) peak = std::max(peak, v);
  ASSERT_GT(peak, 0.0);
  ASSERT_EQ(transient.von_mises.size(), steady.von_mises.size());
  for (std::size_t i = 0; i < steady.von_mises.size(); ++i) {
    EXPECT_NEAR(transient.von_mises[i], steady.von_mises[i], 1e-6 * peak) << "sample " << i;
  }
}

TEST(SubmodelFatigue, PulsedPackageTraceBatchesOnePanelAndReportsDamage) {
  core::SimulationConfig config = test_config();
  config.local.samples_per_block = 6;
  config.coupling.transient.time_step = 0.02;
  const PackageGeometry geometry = small_package();
  const auto package = std::make_shared<const PackageModel>(
      geometry, CoarseMeshSpec{10, 10, 2, 2, 2}, config.thermal_load);
  const int tsv = 2, rings = 1;
  const int padded = tsv + 2 * rings;
  const auto locations = standard_locations(geometry, config.geometry.pitch, padded, padded);
  const SubmodelPlacement& loc = locations[0];

  const thermal::PowerMap idle(8, 8, geometry.substrate_x, geometry.substrate_y, 0.5);
  thermal::PowerMap active = idle;
  active.add_gaussian_hotspot(loc.origin.x + 0.5 * padded * config.geometry.pitch,
                              loc.origin.y + 0.5 * padded * config.geometry.pitch,
                              config.geometry.pitch, 100.0);
  const thermal::PowerTrace trace =
      thermal::PowerTrace::square_wave(idle, active, /*period=*/0.4, /*duty=*/0.5, /*cycles=*/2);

  core::MoreStressSimulator sim(config);
  const core::FatigueResult result =
      *sim.simulate(specs::with_trace(specs::submodel_spec(tsv, tsv, rings, package, loc), trace,
                                      sweep::AnalysisKind::kFatigue))
           .fatigue;

  // The history covers the inner TSV region only, one channel record per
  // recorded step, batched as one panel on a single factorization.
  EXPECT_EQ(result.history.blocks_x(), tsv);
  EXPECT_EQ(result.history.blocks_y(), tsv);
  EXPECT_EQ(result.history.num_steps(), result.transient.num_records());
  EXPECT_EQ(result.stats.solve.num_factorizations, 1);
  EXPECT_EQ(result.stats.solve.num_rhs,
            static_cast<la::idx_t>(result.history_steps.size()) + 1);

  // Pulsed heat at reflow-free reference: real cycles, real damage.
  ASSERT_EQ(result.report.channels.size(), 3u);
  for (const auto& a : result.report.channels) {
    ASSERT_EQ(a.damage.size(), static_cast<std::size_t>(tsv * tsv));
    EXPECT_GT(a.half_cycle_counts[0], 0.0) << a.model_name;
  }
  EXPECT_TRUE(std::isfinite(result.report.min_life_cycles));
  EXPECT_GT(result.report.min_life_cycles, 0.0);
}

}  // namespace
}  // namespace ms::chiplet
