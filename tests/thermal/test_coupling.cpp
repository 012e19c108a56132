// Conduction -> ROM coupling: power-map ΔT sanity on the array thermal
// mesh, and the regression pinning a steady power-map scenario with a
// uniform map to the scalar-ΔT scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/simulator.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"
#include "thermal/conduction_assembler.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::core {
namespace {

/// Small, fast configuration shared by the coupling tests; the direct global
/// solver removes iterative-tolerance noise from path comparisons.
SimulationConfig test_config() {
  SimulationConfig config = SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 20;
  config.local.sample_displacements = false;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

TEST(ThermalCoupling, UniformPowerGivesUniformBlockDeltaT) {
  SimulationConfig config = test_config();
  MoreStressSimulator sim(config);
  const thermal::PowerMap power =
      thermal::PowerMap::per_block(3, 3, config.geometry.pitch, 40.0);
  const ThermalResult result =
      *sim.simulate(specs::with_power(specs::array_spec(3, 3), power)).thermal;

  ASSERT_EQ(result.load.values().size(), 9u);
  for (double dt : result.load.values()) {
    EXPECT_NEAR(dt, result.load.values().front(), 1e-9);
  }
  // Heat flows top -> sink, so the average die temperature sits above the
  // ambient the sink holds; ΔT is measured from stress_free = ambient.
  EXPECT_GT(result.load.values().front(), 0.0);
}

TEST(ThermalCoupling, HotspotHeatsCentreBlocksMost) {
  SimulationConfig config = test_config();
  MoreStressSimulator sim(config);
  thermal::PowerMap power = thermal::PowerMap::per_block(5, 5, config.geometry.pitch, 5.0);
  const double mid = 2.5 * config.geometry.pitch;
  power.add_gaussian_hotspot(mid, mid, config.geometry.pitch, 400.0);
  const ThermalResult result =
      *sim.simulate(specs::with_power(specs::array_spec(5, 5), power)).thermal;

  const auto& dt = result.load.values();
  const double centre = dt[2 * 5 + 2];
  const double edge = dt[2 * 5 + 0];
  const double corner = dt[0];
  EXPECT_GT(centre, edge);
  EXPECT_GT(edge, corner);
  // Lateral spreading (length ~ die height ~ 3 pitches) smooths the block
  // contrast well below the raw power ratio; assert a solid absolute gap.
  EXPECT_GT(centre - corner, 2.0);
  // The von Mises field must be visibly non-uniform: compare the hottest
  // block's peak against a corner block's.
  const int s = result.samples_per_block;
  const int width = result.region_blocks_x * s;
  const auto block_peak = [&](int bx, int by) {
    double peak = 0.0;
    for (int my = 0; my < s; ++my) {
      for (int mx = 0; mx < s; ++mx) {
        peak = std::max(peak, result.von_mises[(by * s + my) * width + bx * s + mx]);
      }
    }
    return peak;
  };
  // Lateral heat spreading and the clamped-face stress concentration soften
  // the contrast below the raw power ratio, but the field stays clearly
  // non-uniform.
  EXPECT_GT(block_peak(2, 2), 1.2 * block_peak(0, 0));
}

TEST(ThermalCoupling, UniformPowerMatchesScalarDeltaTPath) {
  SimulationConfig config = test_config();
  MoreStressSimulator sim(config);
  const thermal::PowerMap power =
      thermal::PowerMap::per_block(3, 3, config.geometry.pitch, 80.0);
  const ThermalResult coupled =
      *sim.simulate(specs::with_power(specs::array_spec(3, 3), power)).thermal;

  // Re-run the scalar-ΔT path at exactly the coupled ΔT.
  SimulationConfig scalar_config = test_config();
  scalar_config.thermal_load = coupled.load.values().front();
  MoreStressSimulator scalar_sim(scalar_config);
  const ArrayResult scalar = *scalar_sim.simulate(specs::array_spec(3, 3)).array;

  ASSERT_EQ(scalar.von_mises.size(), coupled.von_mises.size());
  double peak = 0.0;
  for (double v : scalar.von_mises) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < scalar.von_mises.size(); ++i) {
    EXPECT_NEAR(coupled.von_mises[i], scalar.von_mises[i], 1e-8 * peak) << "sample " << i;
  }
}

TEST(ThermalCoupling, UniformLoadFieldMatchesScalarAssembly) {
  // The BlockLoadField plumbing itself: the scalar ΔT and a uniform
  // load_field payload must produce identical systems and fields.
  SimulationConfig config = test_config();
  MoreStressSimulator sim(config);
  const ArrayResult a = *sim.simulate(specs::array_spec(2, 2)).array;
  sweep::ScenarioSpec field_spec = specs::array_spec(2, 2);
  field_spec.load_field = std::make_shared<const rom::BlockLoadField>(
      rom::BlockLoadField::uniform(config.thermal_load));
  const ArrayResult b = *sim.simulate(field_spec).array;
  ASSERT_EQ(a.von_mises.size(), b.von_mises.size());
  for (std::size_t i = 0; i < a.von_mises.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.von_mises[i], b.von_mises[i]);
  }
}

TEST(ThermalCoupling, RejectsMismatchedPowerMapFootprint) {
  SimulationConfig config = test_config();
  MoreStressSimulator sim(config);
  // A 2x2-block map would silently leave most of a 3x3 array unpowered.
  const thermal::PowerMap small = thermal::PowerMap::per_block(2, 2, config.geometry.pitch, 10.0);
  EXPECT_THROW((void)sim.simulate(specs::with_power(specs::array_spec(3, 3), small)),
               std::invalid_argument);
}

TEST(ThermalCoupling, BlockLoadFieldValidatesExtent) {
  rom::BlockLoadField field(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_FALSE(field.is_uniform());
  EXPECT_DOUBLE_EQ(field.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(field.min(), 1.0);
  EXPECT_DOUBLE_EQ(field.max(), 4.0);
  EXPECT_NO_THROW(field.validate_extent(2, 2));
  EXPECT_THROW(field.validate_extent(3, 2), std::invalid_argument);
  EXPECT_NO_THROW(rom::BlockLoadField::uniform(-250.0).validate_extent(7, 9));
  EXPECT_THROW(rom::BlockLoadField(2, 2, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace ms::core
