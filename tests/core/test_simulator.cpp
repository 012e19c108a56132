#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include <filesystem>
#include <vector>

#include "core/report.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"

namespace ms::core {
namespace {

SimulationConfig small_config(int nodes = 3) {
  SimulationConfig config = SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = nodes;
  config.local.samples_per_block = 10;
  return config;
}

TEST(Config, PaperDefaultMatchesSec52) {
  const SimulationConfig c = SimulationConfig::paper_default();
  EXPECT_DOUBLE_EQ(c.geometry.pitch, 15.0);
  EXPECT_DOUBLE_EQ(c.geometry.diameter, 5.0);
  EXPECT_DOUBLE_EQ(c.geometry.liner_thickness, 0.5);
  EXPECT_DOUBLE_EQ(c.geometry.height, 50.0);
  EXPECT_DOUBLE_EQ(c.thermal_load, -250.0);
  EXPECT_EQ(c.local.nodes_x, 4);
  EXPECT_EQ(c.local.samples_per_block, 100);
}

TEST(Simulator, LocalStageIsLazyAndCached) {
  MoreStressSimulator sim(small_config());
  const double first = sim.prepare_local_stage(false);
  EXPECT_GT(first, 0.0);
  const double second = sim.prepare_local_stage(false);
  EXPECT_DOUBLE_EQ(second, 0.0);
}

TEST(Simulator, ArrayResultShapesAndStats) {
  MoreStressSimulator sim(small_config());
  const ArrayResult result = *sim.simulate(specs::array_spec(3, 2)).array;
  EXPECT_EQ(result.region_blocks_x, 3);
  EXPECT_EQ(result.region_blocks_y, 2);
  EXPECT_EQ(result.samples_per_block, 10);
  EXPECT_EQ(result.von_mises.size(), static_cast<std::size_t>(3 * 10) * (2 * 10));
  EXPECT_EQ(result.stress.size(), result.von_mises.size());
  EXPECT_TRUE(result.stats.solve.converged);
  EXPECT_GT(result.stats.solve.num_dofs, 0);
  EXPECT_GT(result.stats.memory_bytes, 0u);
  EXPECT_GT(result.stats.global_seconds(), 0.0);
}

TEST(Simulator, DiskCacheRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "ms_rom_cache_test";
  std::filesystem::remove_all(dir);

  SimulationConfig config = small_config();
  MoreStressSimulator sim1(config);
  sim1.set_cache_directory(dir.string());
  (void)sim1.tsv_model();
  EXPECT_FALSE(std::filesystem::is_empty(dir));

  MoreStressSimulator sim2(config);
  sim2.set_cache_directory(dir.string());
  const rom::RomModel& loaded = sim2.tsv_model();
  EXPECT_LT(loaded.element_stiffness.frobenius_diff(sim1.tsv_model().element_stiffness), 1e-12);
  std::filesystem::remove_all(dir);
}

TEST(Simulator, SharedCacheDirServesOnlyModelsBuiltForTheSameInputs) {
  // The model key covers every local-stage input exactly: a pitch change
  // below any rounded rendering, or a material change, must build its own
  // model rather than load the one already in a shared cache directory.
  const auto dir = std::filesystem::temp_directory_path() / "ms_rom_key_test";
  std::filesystem::remove_all(dir);
  const SimulationConfig base = small_config();
  {
    MoreStressSimulator seed(base);
    seed.set_cache_directory(dir.string());
    (void)seed.tsv_model();
  }

  SimulationConfig pitch = base;
  pitch.geometry.pitch = 15.001;
  fem::Material stiffer_copper = fem::copper();
  stiffer_copper.youngs_modulus *= 1.2;
  SimulationConfig copper = base;
  copper.materials = fem::MaterialTable(
      {fem::silicon(), stiffer_copper, fem::sio2_liner(), fem::organic_substrate()});

  for (const SimulationConfig& config : {pitch, copper}) {
    MoreStressSimulator cached(config);
    cached.set_cache_directory(dir.string());
    MoreStressSimulator fresh(config);
    const ArrayResult from_dir = *cached.simulate(specs::array_spec(2, 2)).array;
    const ArrayResult no_cache = *fresh.simulate(specs::array_spec(2, 2)).array;
    EXPECT_EQ(from_dir.von_mises, no_cache.von_mises);
    EXPECT_EQ(from_dir.solution, no_cache.solution);
  }
  std::filesystem::remove_all(dir);
}

TEST(Simulator, ModelFileCopiedUnderAnotherConfigsNameIsRebuilt) {
  // A model file is stamped with the fingerprint of the inputs it was built
  // for, so a file that lands under another config's name (copied, or
  // written by a different build) is rebuilt instead of served.
  const auto base_dir = std::filesystem::temp_directory_path() / "ms_rom_copy_base";
  const auto dir = std::filesystem::temp_directory_path() / "ms_rom_copy_test";
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(dir);
  const SimulationConfig base = small_config();
  fem::Material stiffer_copper = fem::copper();
  stiffer_copper.youngs_modulus *= 1.2;
  SimulationConfig copper = base;
  copper.materials = fem::MaterialTable(
      {fem::silicon(), stiffer_copper, fem::sio2_liner(), fem::organic_substrate()});
  const auto only_file = [](const std::filesystem::path& d) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(d)) files.push_back(entry.path());
    EXPECT_EQ(files.size(), 1u);
    return files.front();
  };
  {
    MoreStressSimulator seed(base);
    seed.set_cache_directory(base_dir.string());
    (void)seed.tsv_model();
    MoreStressSimulator named(copper);
    named.set_cache_directory(dir.string());
    (void)named.tsv_model();
  }
  // Overwrite the copper config's file with the base config's model.
  std::filesystem::copy_file(only_file(base_dir), only_file(dir),
                             std::filesystem::copy_options::overwrite_existing);

  MoreStressSimulator cached(copper);
  cached.set_cache_directory(dir.string());
  MoreStressSimulator fresh(copper);
  const ArrayResult from_dir = *cached.simulate(specs::array_spec(2, 2)).array;
  const ArrayResult no_cache = *fresh.simulate(specs::array_spec(2, 2)).array;
  EXPECT_EQ(from_dir.von_mises, no_cache.von_mises);
  EXPECT_EQ(from_dir.solution, no_cache.solution);
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(dir);
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(Simulator, SharedFactorCacheServesOnlyOperatorsOfTheSameThermalMesh) {
  // Two configs whose conduction meshes share node and element counts and
  // whose per-element conductivities and capacities are equal, but whose
  // grid lines are not: the height moves every z line. A cache shared
  // between them must serve neither the other's conduction factor nor its
  // stepper factor.
  SimulationConfig config = small_config();
  config.local.samples_per_block = 8;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  SimulationConfig taller = config;
  taller.geometry.height = 80.0;

  sweep::ScenarioSpec steady = specs::array_spec(3, 3);
  steady.load = sweep::LoadKind::kPower;
  steady.power.background = 20.0;
  steady.power.hotspot_peak = 150.0;
  sweep::ScenarioSpec transient = steady;
  transient.analysis = sweep::AnalysisKind::kTransient;
  transient.load = sweep::LoadKind::kTrace;

  la::FactorCache cache;
  MoreStressSimulator first(config);
  MoreStressSimulator second(taller);
  MoreStressSimulator alone(taller);
  first.set_factor_cache(&cache);
  second.set_factor_cache(&cache);
  for (const sweep::ScenarioSpec& spec : {steady, transient}) {
    SCOPED_TRACE(sweep::to_string(spec.analysis));
    (void)first.simulate(spec);
    const sweep::ScenarioResult shared = second.simulate(spec);
    const sweep::ScenarioResult own = alone.simulate(spec);
    ASSERT_FALSE(shared.failed()) << shared.error.message;
    ASSERT_FALSE(own.failed()) << own.error.message;
    const rom::BlockLoadField& shared_load =
        shared.thermal ? shared.thermal->load : shared.transient->envelope_load;
    const rom::BlockLoadField& own_load =
        own.thermal ? own.thermal->load : own.transient->envelope_load;
    EXPECT_TRUE(bitwise_equal(shared_load.values(), own_load.values()));
    EXPECT_TRUE(bitwise_equal(shared.base().stress, own.base().stress));
    EXPECT_TRUE(bitwise_equal(shared.base().solution, own.base().solution));
  }
}

TEST(Simulator, SubmodelUsesDummyRingsAndReportsInnerRegion) {
  MoreStressSimulator sim(small_config());
  const auto linear = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-4 * p.x, 1e-4 * p.y, -2e-4 * p.z};
  };
  sweep::ScenarioSpec spec = specs::submodel_spec(2, 2, 1);
  spec.displacement = linear;
  const ArrayResult result = *sim.simulate(spec).array;
  EXPECT_EQ(result.region_blocks_x, 2);
  EXPECT_EQ(result.von_mises.size(), static_cast<std::size_t>(2 * 10) * (2 * 10));
  EXPECT_TRUE(result.stats.solve.converged);
}

TEST(Simulator, SubmodelRejectsNegativeRings) {
  MoreStressSimulator sim(small_config());
  sweep::ScenarioSpec spec = specs::submodel_spec(2, 2, -1);
  spec.displacement = [](const mesh::Point3&) { return std::array<double, 3>{0, 0, 0}; };
  EXPECT_THROW((void)sim.simulate(spec), std::invalid_argument);
}

TEST(Simulator, StressScalesLinearlyWithThermalLoad) {
  SimulationConfig c1 = small_config();
  SimulationConfig c2 = small_config();
  c2.thermal_load = 2.0 * c1.thermal_load;
  MoreStressSimulator sim1(c1), sim2(c2);
  const ArrayResult r1 = *sim1.simulate(specs::array_spec(2, 2)).array;
  const ArrayResult r2 = *sim2.simulate(specs::array_spec(2, 2)).array;
  double max_vm = 0.0;
  for (double v : r1.von_mises) max_vm = std::max(max_vm, v);
  for (std::size_t i = 0; i < r1.von_mises.size(); ++i) {
    EXPECT_NEAR(r2.von_mises[i], 2.0 * r1.von_mises[i], 1e-5 * max_vm);
  }
}

TEST(ReferenceHelpers, ArrayReferenceMatchesShapes) {
  const SimulationConfig config = small_config();
  fem::FemSolveOptions options;
  options.method = "direct";
  const ReferenceResult ref = reference_array(config, 2, 2, options);
  EXPECT_EQ(ref.von_mises.size(), static_cast<std::size_t>(2 * 10) * (2 * 10));
  EXPECT_GT(ref.stats.num_dofs, 0);

  MoreStressSimulator sim(config);
  const ArrayResult rom = *sim.simulate(specs::array_spec(2, 2)).array;
  const double err = field_error(ref, rom.von_mises);
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 0.10);  // (3,3,3) nodes on a 2x2 array: coarse but sane
}

}  // namespace
}  // namespace ms::core
