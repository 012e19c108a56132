// The benchmark's own tests: seeded inputs, the percentile helper, the
// tracer's self-time arithmetic, and replay-vs-simulate(spec) agreement on
// one small query of each workload shape.
//
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "bench_util.hpp"
#include "chiplet/package_model.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sw = ms::sweep;

std::shared_ptr<const ms::chiplet::PackageModel> package_for(
    const ms::core::SimulationConfig& config, int padded) {
  return std::make_shared<const ms::chiplet::PackageModel>(
      ms::chiplet::demo_package_geometry(config.geometry.pitch, padded, config.geometry.height),
      ms::chiplet::demo_coarse_spec(), config.thermal_load);
}

std::string groups_text(Workload workload, std::uint64_t seed,
                        std::shared_ptr<const ms::chiplet::PackageModel> package, int groups) {
  SpecSource source(workload, seed, std::move(package));
  std::string text;
  for (int g = 0; g < groups; ++g) text += specs_config_text(source.next_group());
  return text;
}

/// The properties that set a query's cost, which no seed may change.
struct CostShape {
  sw::ScenarioKind kind;
  sw::AnalysisKind analysis;
  int blocks_x, blocks_y, rings, location;
  double period;
  int cycles;
  bool operator==(const CostShape& o) const {
    return kind == o.kind && analysis == o.analysis && blocks_x == o.blocks_x &&
           blocks_y == o.blocks_y && rings == o.rings && location == o.location &&
           period == o.period && cycles == o.cycles;
  }
};

std::vector<CostShape> shapes(const std::vector<sw::ScenarioSpec>& specs) {
  std::vector<CostShape> out;
  for (const sw::ScenarioSpec& s : specs) {
    out.push_back({s.kind, s.analysis, s.blocks_x, s.blocks_y, s.dummy_rings, s.location,
                   s.trace.period, s.trace.cycles});
  }
  return out;
}

TEST(SeededSpecs, SameSeedGivesSameConfigText) {
  const auto package = package_for(workload_config(Workload::kPackageLocations), 6);
  for (Workload w : {Workload::kPaperArrays, Workload::kFatigueSweep,
                     Workload::kPackageLocations}) {
    EXPECT_EQ(groups_text(w, 7, package, 2), groups_text(w, 7, package, 2)) << workload_name(w);
    EXPECT_NE(groups_text(w, 7, package, 1), groups_text(w, 8, package, 1)) << workload_name(w);
  }
}

TEST(SeededSpecs, OtherSeedKeepsCostSettingProperties) {
  const auto package = package_for(workload_config(Workload::kPackageLocations), 6);
  for (Workload w : {Workload::kPaperArrays, Workload::kFatigueSweep,
                     Workload::kPackageLocations}) {
    SpecSource a(w, 1, package);
    SpecSource b(w, 99, package);
    for (int g = 0; g < 3; ++g) EXPECT_TRUE(shapes(a.next_group()) == shapes(b.next_group()));
    EXPECT_EQ(a.check_spec().blocks_x, b.check_spec().blocks_x);
  }
}

TEST(SeededSpecs, ConfigTextRoundTrips) {
  SpecSource source(Workload::kFatigueSweep, 3);
  const std::vector<sw::ScenarioSpec> group = source.next_group();
  const std::vector<sw::ScenarioSpec> parsed = sw::parse_scenarios(specs_config_text(group));
  ASSERT_EQ(parsed.size(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) EXPECT_TRUE(parsed[i] == group[i]);
}

TEST(SeededSpecs, CheckedRowsAreDistinctAndInRange) {
  const std::vector<std::size_t> rows = SpecSource(Workload::kFatigueSweep, 5).checked_rows();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kCheckedRows));
  EXPECT_NE(rows[0], rows[1]);
  for (std::size_t r : rows) EXPECT_LT(r, static_cast<std::size_t>(kFatigueBatch));
}

TEST(Percentile, InterpolatesLikePythonStatistics) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Percentile, SampleCountLeavesTenBeyond) {
  EXPECT_EQ(samples_needed(0.5), 20u);
  EXPECT_EQ(samples_needed(0.9), 100u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
  EXPECT_THROW(samples_needed(1.0), std::invalid_argument);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer;
  tracer.set_query(0);
  {
    Traced root(tracer, "query", "core.replay");
    Traced outer(tracer, "outer", "a");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Traced inner(tracer, "inner", "b");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::map<std::string, double> self = tracer.self_seconds(false);
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_NEAR(self.at("a") + self.at("b") + self.at("core.replay"), tracer.root_seconds(), 1e-12);
  EXPECT_GT(self.at("a"), 0.0015);
  EXPECT_TRUE(tracer.self_seconds(true).empty());
}

TEST(Tracer, ChargedSecondsMoveOutOfSelfTime) {
  Tracer tracer;
  tracer.set_query(0);
  {
    Traced call(tracer, "call", "a");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tracer.charge(call.id(), "b", 0.001);
  }
  const std::map<std::string, double> self = tracer.self_seconds(false);
  EXPECT_DOUBLE_EQ(self.at("b"), 0.001);
  EXPECT_NEAR(self.at("a") + self.at("b"), tracer.root_seconds(), 1e-12);
  EXPECT_NE(tracer.to_json().find("\"charged\": {\"b\": 0.001000000}"), std::string::npos);
}

/// Replay one query and compare its headline outputs with simulate(spec).
void expect_agreement(Workload workload, const sw::ScenarioSpec& spec, bool with_dummy,
                      long long factorizations) {
  const ms::core::SimulationConfig config = workload_config(workload);
  Tracer tracer;
  Replayer replayer(config, tracer, with_dummy, workload != Workload::kPaperArrays);
  tracer.set_query(0);
  Outcome replayed;
  {
    Traced root(tracer, "query", "core.replay");
    replayed = replayer.replay(spec);
  }
  replayer.count_factors();
  ms::core::MoreStressSimulator simulator(config);
  const sw::ScenarioResult reference = simulator.simulate(spec);
  ASSERT_TRUE(healthy(reference));
  EXPECT_EQ(replayed.peak_von_mises, reference.peak_von_mises);
  if (std::isnan(reference.min_life_log10)) {
    EXPECT_TRUE(std::isnan(replayed.min_life_log10));
  } else {
    EXPECT_EQ(replayed.min_life_log10, reference.min_life_log10);
  }
  const LaCounts& la = replayer.la_counts();
  EXPECT_EQ(la.factorizations, factorizations);
  EXPECT_GT(la.flops, la.factor_nnz);
  EXPECT_GT(la.rhs, 0);
  // The factorizations' phases are charged to la, out of the solver spans.
  const std::map<std::string, double> self = tracer.self_seconds(false);
  EXPECT_GT(self.at("la.numeric_s"), 0.0);
  EXPECT_GT(self.at("la.triangular_s"), 0.0);
}

TEST(Replay, AgreesWithSimulateOnAnArray) {
  sw::ScenarioSpec spec = SpecSource(Workload::kPaperArrays, 1).check_spec();
  expect_agreement(Workload::kPaperArrays, spec, false, 1);
}

TEST(Replay, AgreesWithSimulateOnAFatigueQuery) {
  sw::ScenarioSpec spec = SpecSource(Workload::kFatigueSweep, 1).next_group().front();
  spec.blocks_x = spec.blocks_y = 3;
  expect_agreement(Workload::kFatigueSweep, spec, false, 2);  // stepper + ROM
}

TEST(Replay, AgreesWithSimulateOnAPackageLocation) {
  const ms::core::SimulationConfig config = workload_config(Workload::kPackageLocations);
  sw::ScenarioSpec spec;
  spec.name = "small_loc2";
  spec.kind = sw::ScenarioKind::kSubmodel;
  spec.analysis = sw::AnalysisKind::kSteady;
  spec.load = sw::LoadKind::kPower;
  spec.blocks_x = spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.location = 2;
  spec.power.background = 20.0;
  spec.power.hotspot_peak = 250.0;
  spec.package = package_for(config, 4);
  expect_agreement(Workload::kPackageLocations, spec, true, 2);  // conduction + ROM
}

}  // namespace
}  // namespace perfbench
