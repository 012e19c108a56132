#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario_result.hpp"
#include "thermal/power_map.hpp"
#include "util/json.hpp"
#include "util/scenario_specs.hpp"

namespace ms::obs {
namespace {

TEST(RunReport, ValueCountAndDeltaSemantics) {
  MetricRegistry reg;
  reg.counter("solves").add(2);
  reg.gauge("dofs").set(120.0);
  reg.histogram("seconds").record(0.5);
  const RunReport before = RunReport::capture(reg);

  reg.counter("solves").add(3);
  reg.histogram("seconds").record(0.25);
  const RunReport after = RunReport::capture(reg);

  EXPECT_DOUBLE_EQ(before.value("solves"), 2.0);
  EXPECT_EQ(after.count("solves"), 5);
  EXPECT_DOUBLE_EQ(after.delta(before, "solves"), 3.0);
  EXPECT_EQ(after.count_delta(before, "seconds"), 1);
  EXPECT_DOUBLE_EQ(after.delta(before, "seconds"), 0.25);
  EXPECT_DOUBLE_EQ(after.value("dofs"), 120.0);
  EXPECT_DOUBLE_EQ(after.value("absent"), 0.0);
  EXPECT_EQ(after.count_delta(before, "absent"), 0);
}

TEST(RunReport, RenderJsonParsesBackNameSorted) {
  MetricRegistry reg;
  reg.histogram("z.seconds").record(0.5);
  reg.counter("a.count").add(7);
  reg.gauge("m.gauge").set(-1.5);
  const RunReport report = RunReport::capture(reg);

  const util::JsonValue doc = util::parse_json(report.render_json());
  ASSERT_TRUE(doc.is_object());
  const util::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  ASSERT_EQ(metrics->object.size(), 3u);
  // std::map iteration == name order; JSON objects are emitted in that order.
  auto it = metrics->object.begin();
  EXPECT_EQ(it->first, "a.count");
  EXPECT_DOUBLE_EQ(it->second.find("count")->number, 7.0);
  ++it;
  EXPECT_EQ(it->first, "m.gauge");
  EXPECT_DOUBLE_EQ(it->second.find("value")->number, -1.5);
  ++it;
  EXPECT_EQ(it->first, "z.seconds");
  EXPECT_DOUBLE_EQ(it->second.find("sum")->number, 0.5);
  EXPECT_DOUBLE_EQ(it->second.find("count")->number, 1.0);
  // Non-empty histograms render their interpolated percentiles; a single
  // sample pins all three to the exact recorded value.
  EXPECT_DOUBLE_EQ(it->second.find("p50")->number, 0.5);
  EXPECT_DOUBLE_EQ(it->second.find("p95")->number, 0.5);
  EXPECT_DOUBLE_EQ(it->second.find("p99")->number, 0.5);
}

TEST(RunReport, IdenticalRegistriesRenderIdenticalJson) {
  const auto fill = [](MetricRegistry& reg) {
    reg.counter("runs").add(4);
    reg.histogram("h").record(0.125);
    reg.histogram("h").record(0.5);
    reg.gauge("g").set(3.75);
  };
  MetricRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(RunReport::capture(r1).render_json(), RunReport::capture(r2).render_json());
}

/// The regression lock of the observability PR: solve paths publish the
/// exact values their legacy stats structs carry, so a RunReport captured
/// after an array-thermal run must agree bit-for-bit with the structs.
TEST(RunReport, MatchesLegacyStatsOnArrayThermalRun) {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 8;
  core::MoreStressSimulator sim(config);
  (void)sim.prepare_local_stage(false);

  const int blocks = 3;
  const thermal::PowerMap power =
      thermal::PowerMap::per_block(blocks, blocks, config.geometry.pitch, 40.0);

  // Zero the global registry so each histogram sees exactly one record and
  // its sum equals the recorded value with no accumulation rounding.
  MetricRegistry::global().reset();
  const core::ThermalResult result =
      *sim.simulate(specs::with_power(specs::array_spec(blocks, blocks), power)).thermal;
  const RunReport report = RunReport::capture();

  // Global (ROM) stage: core.run.* mirrors the stages core::RunStats adds
  // around the solve; the solve itself is recorded once, under rom.global.*.
  EXPECT_DOUBLE_EQ(report.value("core.run.assemble_seconds"), result.stats.assemble_seconds);
  EXPECT_DOUBLE_EQ(report.value("core.run.reconstruct_seconds"),
                   result.stats.reconstruct_seconds);
  EXPECT_DOUBLE_EQ(report.value("core.run.local_stage_seconds"),
                   result.stats.local_stage_seconds);
  EXPECT_DOUBLE_EQ(report.value("core.run.memory_bytes"),
                   static_cast<double>(result.stats.memory_bytes));
  EXPECT_EQ(report.count("rom.global.solves"), 1);
  EXPECT_DOUBLE_EQ(report.value("rom.global.solve_seconds"), result.stats.solve.solve_seconds);
  EXPECT_DOUBLE_EQ(report.value("rom.global.factor_seconds"), result.stats.solve.factor_seconds);
  EXPECT_DOUBLE_EQ(report.value("rom.global.num_dofs"),
                   static_cast<double>(result.stats.solve.num_dofs));

  // Thermal stage: thermal.steady.* mirrors thermal::ThermalSolveStats.
  EXPECT_EQ(report.count("thermal.steady.solves"), 1);
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.assemble_seconds"),
                   result.thermal_stats.assemble_seconds);
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.solve_seconds"),
                   result.thermal_stats.solve_seconds);
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.factor_seconds"),
                   result.thermal_stats.factor_seconds);
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.num_dofs"),
                   static_cast<double>(result.thermal_stats.num_dofs));
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.converged"),
                   result.thermal_stats.converged ? 1.0 : 0.0);
  EXPECT_DOUBLE_EQ(report.value("thermal.steady.iterations"),
                   static_cast<double>(result.thermal_stats.iterations));
}

}  // namespace
}  // namespace ms::obs
