#include "rom/local_stage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "fem/assembler.hpp"
#include "fem/solver.hpp"

namespace ms::rom {
namespace {

mesh::TsvGeometry small_geometry() { return {15.0, 5.0, 0.5, 50.0}; }
mesh::BlockMeshSpec small_spec() { return {6, 3}; }

LocalStageOptions small_options(int nodes = 3) {
  LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = nodes;
  options.samples_per_block = 8;
  return options;
}

const fem::MaterialTable& table() {
  static const fem::MaterialTable t = fem::MaterialTable::standard();
  return t;
}

TEST(LocalStage, ProducesConsistentShapes) {
  const RomModel m =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options());
  const idx_t n = m.num_element_dofs();
  EXPECT_EQ(m.element_stiffness.rows(), n);
  EXPECT_EQ(m.element_stiffness.cols(), n);
  EXPECT_EQ(static_cast<idx_t>(m.element_load.size()), n);
  EXPECT_EQ(m.stress_samples.rows(), 6 * 8 * 8);
  EXPECT_EQ(m.stress_samples.cols(), n + 1);
  EXPECT_EQ(m.displacement_samples.rows(), 3 * 8 * 8);
  EXPECT_GT(m.fine_mesh_dofs, n);
  EXPECT_GT(m.local_stage_seconds, 0.0);
}

TEST(LocalStage, ElementStiffnessSymmetricPsd) {
  const RomModel m =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options());
  EXPECT_LT(m.element_stiffness.symmetry_error(), 1e-6);
  // Rayleigh quotients nonnegative for a family of probe vectors (PSD: the
  // unconstrained block still has rigid-body modes).
  const idx_t n = m.element_stiffness.rows();
  for (int seed = 0; seed < 5; ++seed) {
    la::Vec x(n), ax;
    for (idx_t i = 0; i < n; ++i) x[i] = std::sin(0.7 * i + seed);
    m.element_stiffness.mul(x, ax);
    EXPECT_GT(la::dot(x, ax), -1e-6 * la::dot(x, x));
  }
}

TEST(LocalStage, RigidTranslationInElementKernel) {
  // A_elem must annihilate uniform translations of the surface nodes: the
  // basis reproduces rigid motion exactly (Lagrange reproduces constants).
  const RomModel m =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options());
  const idx_t n = m.element_stiffness.rows();
  double scale = 0.0;
  for (idx_t i = 0; i < n; ++i) scale = std::max(scale, m.element_stiffness(i, i));
  for (int c = 0; c < 3; ++c) {
    la::Vec t(n, 0.0), at;
    for (idx_t i = c; i < n; i += 3) t[i] = 1.0;
    m.element_stiffness.mul(t, at);
    EXPECT_LT(la::norm_inf(at), 1e-8 * scale) << "component " << c;
  }
}

TEST(LocalStage, DummyBlockHasNoCopperSignature) {
  // The dummy (pure Si) block is stiffness-homogeneous: thermal load vector
  // of the uniform block is in equilibrium with zero boundary reactions only
  // if boundary displacement matches free expansion; its element load is
  // nonzero but the stress samples at DT with zero nodal motion must be
  // (near-)hydrostatic => tiny von Mises away from boundaries.
  const RomModel dummy =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Dummy, small_options());
  const RomModel tsv =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options());
  // The TSV thermal column must differ strongly from the dummy's.
  const idx_t col = dummy.stress_samples.cols() - 1;
  double max_diff = 0.0;
  for (idx_t r = 0; r < dummy.stress_samples.rows(); ++r) {
    max_diff = std::max(max_diff,
                        std::fabs(dummy.stress_samples(r, col) - tsv.stress_samples(r, col)));
  }
  EXPECT_GT(max_diff, 0.1);
}

TEST(LocalStage, SampleDisplacementsOptional) {
  LocalStageOptions options = small_options();
  options.sample_displacements = false;
  const RomModel m =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, options);
  EXPECT_EQ(m.displacement_samples.rows(), 0);
}

TEST(LocalStage, RejectsTooFewNodes) {
  LocalStageOptions options = small_options();
  options.nodes_x = 1;
  EXPECT_THROW(run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, options),
               std::invalid_argument);
}

TEST(LocalStage, FinerInterpolationEnrichesModel) {
  const RomModel coarse =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options(2));
  const RomModel fine =
      run_local_stage(small_geometry(), small_spec(), table(), BlockKind::Tsv, small_options(4));
  EXPECT_EQ(coarse.num_element_dofs(), 24);
  EXPECT_EQ(fine.num_element_dofs(), 168);
  EXPECT_GT(fine.element_stiffness.rows(), coarse.element_stiffness.rows());
}

TEST(LocalStage, FingerprintSeparatesEveryInput) {
  // Every input run_local_stage reads, perturbed one at a time, must move
  // the fingerprint a cached model is filed and stamped under, and no two
  // perturbations may collide.
  struct Inputs {
    mesh::TsvGeometry geometry = small_geometry();
    mesh::BlockMeshSpec spec = small_spec();
    std::vector<fem::Material> materials = {fem::silicon(), fem::copper(), fem::sio2_liner(),
                                            fem::organic_substrate()};
    BlockKind kind = BlockKind::Tsv;
    LocalStageOptions options = small_options();
  };
  const auto fingerprint = [](const Inputs& in) {
    return local_stage_fingerprint(in.geometry, in.spec, fem::MaterialTable(in.materials),
                                   in.kind, in.options);
  };
  // Scales a non-zero value (keeping Poisson's ratio valid), sets a zero one.
  const auto nudge = [](double& v) { v = v == 0.0 ? 0.125 : 0.9 * v; };
  using Perturb = std::function<void(Inputs&)>;
  const std::vector<Perturb> perturbations = {
      [&](Inputs& in) { nudge(in.geometry.pitch); },
      [&](Inputs& in) { nudge(in.geometry.diameter); },
      [&](Inputs& in) { nudge(in.geometry.liner_thickness); },
      [&](Inputs& in) { nudge(in.geometry.height); },
      [](Inputs& in) { ++in.spec.elems_xy; },
      [](Inputs& in) { ++in.spec.elems_z; },
      [](Inputs& in) { ++in.options.nodes_x; },
      [](Inputs& in) { ++in.options.nodes_y; },
      [](Inputs& in) { ++in.options.nodes_z; },
      [](Inputs& in) { ++in.options.samples_per_block; },
      [](Inputs& in) { in.options.sample_displacements = !in.options.sample_displacements; },
      [](Inputs& in) { in.options.uncorrected_eq19_load = !in.options.uncorrected_eq19_load; },
      [](Inputs& in) { in.kind = BlockKind::Dummy; },
      [](Inputs& in) { in.materials[1].name += "-alloy"; },
      [&](Inputs& in) { nudge(in.materials[1].youngs_modulus); },
      [&](Inputs& in) { nudge(in.materials[1].poisson_ratio); },
      [&](Inputs& in) { nudge(in.materials[1].cte); },
      [&](Inputs& in) { nudge(in.materials[1].conductivity); },
      [&](Inputs& in) { nudge(in.materials[1].volumetric_heat_capacity); },
      [&](Inputs& in) { nudge(in.materials[1].fatigue_strength); },
      [&](Inputs& in) { nudge(in.materials[1].fatigue_strength_exponent); },
      [&](Inputs& in) { nudge(in.materials[1].fatigue_ductility); },
      [&](Inputs& in) { nudge(in.materials[1].fatigue_ductility_exponent); },
      [&](Inputs& in) { nudge(in.materials[1].ultimate_strength); },
  };
  ASSERT_EQ(perturbations.size(), 24u);
  const std::uint64_t base = fingerprint(Inputs{});
  std::set<std::uint64_t> seen{base};
  for (std::size_t i = 0; i < perturbations.size(); ++i) {
    Inputs in;
    perturbations[i](in);
    const std::uint64_t h = fingerprint(in);
    EXPECT_NE(h, base) << "perturbation " << i;
    EXPECT_TRUE(seen.insert(h).second) << "perturbation " << i << " collides";
  }
}

}  // namespace
}  // namespace ms::rom
