// Integration tests exercising the full MORE-Stress pipeline against the
// fine-mesh FEM on the identical discrete model. These encode the paper's
// central claims at test scale:
//   * the ROM is exact when the true solution lies in the interpolation
//     space (patch test);
//   * the single error source is boundary interpolation, which converges as
//     (nx, ny, nz) grow (Table 3 behaviour);
//   * errors stay small and the reaction-corrected element load (DESIGN.md
//     note on Eq. 19) reproduces the homogeneous-domain solution.

#include <gtest/gtest.h>

#include "baseline/superposition.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "fem/solver.hpp"
#include "fem/stress.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/local_stage.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"

namespace ms {
namespace {

core::SimulationConfig test_config(int nodes) {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = nodes;
  config.local.samples_per_block = 12;
  config.global.rel_tol = 1e-11;
  return config;
}

TEST(EndToEnd, PatchTestLinearFieldIsExact) {
  // Zero thermal load, HOMOGENEOUS (pure silicon) blocks, linear prescribed
  // boundary displacement: the exact solution u = A x is an equilibrium
  // field, lies in the trilinear FEM space AND in the Lagrange interpolation
  // space, so the ROM must reproduce it to solver precision. (TSV blocks are
  // heterogeneous — a linear field is not an equilibrium state there.)
  core::SimulationConfig config = test_config(3);
  config.thermal_load = 0.0;
  config.global.rel_tol = 1e-13;

  const rom::RomModel dummy = rom::run_local_stage(config.geometry, config.mesh_spec,
                                                   config.materials, rom::BlockKind::Dummy,
                                                   config.local);

  const auto linear = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-3 * p.x + 2e-4 * p.y, -5e-4 * p.y + 1e-4 * p.z,
                                 3e-4 * p.z - 2e-4 * p.x};
  };
  const rom::BlockGrid grid(2, 2, 3, 3, 3, config.geometry.pitch, config.geometry.height);
  rom::GlobalProblem problem = rom::assemble_global(grid, dummy, nullptr, {}, 0.0);
  const fem::DirichletBc bc = rom::submodel_boundary(grid, linear);
  const la::Vec solution = rom::solve_global_multi(problem, {}, bc, config.global).front();
  const auto displacement = rom::reconstruct_plane_displacement(
      grid, dummy, nullptr, {}, solution, 0.0, rom::BlockRange::all(grid));
  const int s = config.local.samples_per_block;
  const double z = 0.5 * config.geometry.height;
  std::size_t idx = 0;
  for (int gy = 0; gy < 2 * s; ++gy) {
    const double y = (gy + 0.5) / s * config.geometry.pitch;
    for (int gx = 0; gx < 2 * s; ++gx, ++idx) {
      const double x = (gx + 0.5) / s * config.geometry.pitch;
      const auto expected = linear({x, y, z});
      for (int c = 0; c < 3; ++c) {
        EXPECT_NEAR(displacement[idx][c], expected[c], 1e-9) << "c=" << c;
      }
    }
  }
}

TEST(EndToEnd, HomogeneousDomainThermalLoadMatchesFineFem) {
  // Two dummy (pure silicon) blocks under thermal load, clamped top/bottom.
  // This isolates the element-load term (Eq. 19): with the reaction
  // correction the ROM tracks the fine FEM closely; without it the interface
  // would carry spurious forces.
  core::SimulationConfig config = test_config(4);
  const fem::MaterialTable& table = config.materials;

  rom::LocalStageOptions local = config.local;
  const rom::RomModel dummy = rom::run_local_stage(config.geometry, config.mesh_spec, table,
                                                   rom::BlockKind::Dummy, local);
  const rom::BlockGrid grid(2, 1, 4, 4, 4, config.geometry.pitch, config.geometry.height);
  rom::GlobalProblem problem = rom::assemble_global(grid, dummy, nullptr, {}, -250.0);
  const la::Vec u =
      rom::solve_global_multi(problem, {}, rom::clamp_top_bottom(grid), config.global).front();
  const auto rom_vm = rom::reconstruct_plane_von_mises(grid, dummy, nullptr, {}, u, -250.0,
                                                       rom::BlockRange::all(grid));

  // Fine FEM of the same 2x1 pure-silicon domain.
  const mesh::HexMesh fine = mesh::build_array_mesh(
      config.geometry, config.mesh_spec, 2, 1, std::vector<std::uint8_t>{0, 0});
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(fine.top_bottom_nodes());
  fem::FemSolveOptions options;
  options.method = "direct";
  const la::Vec u_fine = fem::solve_thermal_stress(fine, table, -250.0, bc, options);
  const fem::PlaneGrid plane = fem::make_block_plane_grid(
      config.geometry.pitch, 2, 1, config.local.samples_per_block, 0.5 * config.geometry.height);
  const auto ref_vm =
      fem::to_von_mises(fem::sample_plane_stress(fine, table, u_fine, -250.0, plane));

  // Normalize by the hydrostatic scale (von Mises itself is near zero in the
  // core, so normalized MAE on vm alone is too forgiving; use max ref).
  EXPECT_LT(fem::normalized_mae(ref_vm, rom_vm), 0.03);
}

class EndToEndConvergence : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndConvergence, ErrorWithinBand) {
  // 2x2 TSV array: ROM vs fine FEM on the identical voxel model.
  const int nodes = GetParam();
  core::SimulationConfig config = test_config(nodes);
  core::MoreStressSimulator sim(config);
  const core::ArrayResult rom = *sim.simulate(specs::array_spec(2, 2)).array;

  fem::FemSolveOptions options;
  options.method = "direct";
  const core::ReferenceResult ref = core::reference_array(config, 2, 2, options);
  const double err = core::field_error(ref, rom.von_mises);
  // Error bands decrease with node count (loose bounds; exact decay is
  // checked below).
  const double band = nodes <= 2 ? 0.25 : nodes == 3 ? 0.10 : 0.06;
  EXPECT_LT(err, band) << "nodes=" << nodes;
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, EndToEndConvergence, ::testing::Values(2, 3, 4, 5));

TEST(EndToEnd, ErrorDecreasesMonotonicallyWithNodes) {
  fem::FemSolveOptions options;
  options.method = "direct";
  const core::ReferenceResult ref = core::reference_array(test_config(3), 2, 2, options);

  double previous = 1e9;
  for (int nodes : {2, 3, 4, 5}) {
    core::MoreStressSimulator sim(test_config(nodes));
    const core::ArrayResult rom = *sim.simulate(specs::array_spec(2, 2)).array;
    const double err = core::field_error(ref, rom.von_mises);
    EXPECT_LT(err, previous) << "nodes=" << nodes;
    previous = err;
  }
}

TEST(EndToEnd, RomIsExactWhenBoundaryIsResolved) {
  // Single block, every surface node constrained: the ROM reconstruction
  // solves exactly the same Dirichlet problem the fine FEM solves when its
  // boundary values are the Lagrange interpolation of the nodal data. This
  // pins the local-stage bases against an independent solve.
  core::SimulationConfig config = test_config(3);
  core::MoreStressSimulator sim(config);

  const auto smooth = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-4 * p.x * p.x / 15.0, -2e-4 * p.y, 1e-4 * (p.z - 25.0)};
  };
  sweep::ScenarioSpec spec = specs::submodel_spec(1, 1, 0);
  spec.displacement = smooth;
  const core::ArrayResult rom = *sim.simulate(spec).array;

  // Fine reference: boundary values = Lagrange interpolation of smooth() at
  // the surface nodes (NOT smooth() itself — the quadratic x-term is outside
  // the 3-node interpolation space along edges only in combination).
  const mesh::HexMesh fine = mesh::build_tsv_block_mesh(config.geometry, config.mesh_spec);
  const rom::SurfaceNodeSet sns = sim.tsv_model().surface_nodes();
  la::Vec nodal(3 * sns.count());
  for (la::idx_t m = 0; m < sns.count(); ++m) {
    const auto v = smooth(sns.position(m));
    for (int c = 0; c < 3; ++c) nodal[3 * m + c] = v[c];
  }
  const auto bnodes = fine.boundary_nodes();
  la::Vec values;
  values.reserve(3 * bnodes.size());
  for (la::idx_t node : bnodes) {
    const mesh::Point3 p = fine.node_pos(node);
    double interp[3] = {0.0, 0.0, 0.0};
    for (la::idx_t m = 0; m < sns.count(); ++m) {
      const double w = sns.weight(p, m);
      if (w == 0.0) continue;
      for (int c = 0; c < 3; ++c) interp[c] += w * nodal[3 * m + c];
    }
    values.insert(values.end(), {interp[0], interp[1], interp[2]});
  }
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(bnodes, values);
  fem::FemSolveOptions options;
  options.method = "direct";
  const la::Vec u_fine =
      fem::solve_thermal_stress(fine, config.materials, config.thermal_load, bc, options);
  const fem::PlaneGrid plane = fem::make_block_plane_grid(
      config.geometry.pitch, 1, 1, config.local.samples_per_block, 0.5 * config.geometry.height);
  const auto ref_vm = fem::to_von_mises(
      fem::sample_plane_stress(fine, config.materials, u_fine, config.thermal_load, plane));

  EXPECT_LT(fem::normalized_mae(ref_vm, rom.von_mises), 1e-7);
}

TEST(EndToEnd, RomBeatsSuperpositionOnTightPitch) {
  // The headline claim at test scale: on a small-pitch array the ROM error
  // is far below linear superposition's.
  core::SimulationConfig config = test_config(4);
  config.geometry.pitch = 10.0;
  core::MoreStressSimulator sim(config);
  const core::ArrayResult rom = *sim.simulate(specs::array_spec(3, 3)).array;

  fem::FemSolveOptions options;
  options.method = "direct";
  const core::ReferenceResult ref = core::reference_array(config, 3, 3, options);

  baseline::SuperpositionModel::BuildOptions build;
  build.window_blocks = 3;
  build.samples_per_block = config.local.samples_per_block;
  build.fem.method = "direct";
  const auto superposition = baseline::SuperpositionModel::build(
      config.geometry, config.mesh_spec, config.materials, build);
  const auto sp_vm = fem::to_von_mises(superposition.estimate_array(3, 3));

  const double rom_err = core::field_error(ref, rom.von_mises);
  const double sp_err = core::field_error(ref, sp_vm);
  EXPECT_LT(rom_err, sp_err) << "rom=" << rom_err << " superposition=" << sp_err;
  EXPECT_LT(rom_err, 0.06);
}

}  // namespace
}  // namespace ms
