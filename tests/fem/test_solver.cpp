#include "fem/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/sim_error.hpp"
#include "fem/stress.hpp"
#include "mesh/grading.hpp"
#include "mesh/tsv_block.hpp"
#include "util/fault_injector.hpp"

namespace ms::fem {
namespace {

mesh::HexMesh box_mesh(int n, double l = 1.0) {
  const auto c = mesh::uniform_coords(0.0, l, n);
  return mesh::HexMesh(c, c, c);
}

TEST(Solver, CgAndDirectAgree) {
  const mesh::HexMesh m = box_mesh(4);
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());

  FemSolveOptions direct;
  direct.method = "direct";
  FemSolveOptions cg;
  cg.method = "cg";
  cg.rel_tol = 1e-12;

  const Vec u1 = solve_thermal_stress(m, table, -250.0, bc, direct);
  const Vec u2 = solve_thermal_stress(m, table, -250.0, bc, cg);
  EXPECT_LT(la::max_abs_diff(u1, u2), 1e-7);
}

TEST(Solver, StatsArePopulated) {
  const mesh::HexMesh m = box_mesh(3);
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveStats stats;
  FemSolveOptions options;
  options.rel_tol = 1e-9;
  (void)solve_thermal_stress(m, table, -250.0, bc, options, &stats);
  EXPECT_EQ(stats.num_dofs, 3 * m.num_nodes());
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.matrix_bytes, 0u);
  EXPECT_GT(stats.total_seconds(), 0.0);
  EXPECT_EQ(stats.total_bytes(), stats.matrix_bytes + stats.solver_bytes);
}

TEST(Solver, ZeroThermalLoadGivesZeroDisplacement) {
  const mesh::HexMesh m = box_mesh(3);
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  const Vec u = solve_thermal_stress(m, table, 0.0, bc, {});
  EXPECT_LT(la::norm_inf(u), 1e-12);
}

TEST(Solver, DisplacementScalesLinearlyWithLoad) {
  const mesh::HexMesh m = box_mesh(3);
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "direct";
  const Vec u1 = solve_thermal_stress(m, table, -100.0, bc, options);
  const Vec u2 = solve_thermal_stress(m, table, -200.0, bc, options);
  for (std::size_t i = 0; i < u1.size(); ++i) EXPECT_NEAR(u2[i], 2.0 * u1[i], 1e-9);
}

TEST(Solver, UniformSiliconClampedPlateHasHydrostaticCore) {
  // Pure silicon plate, wide relative to its thickness, clamped top/bottom:
  // away from the lateral free faces u -> 0 and sigma -> -DT beta I, whose
  // von Mises is zero. (A cube has no such core — the plate aspect matters.)
  const mesh::HexMesh m(mesh::uniform_coords(0.0, 16.0, 16), mesh::uniform_coords(0.0, 16.0, 16),
                        mesh::uniform_coords(0.0, 2.0, 3));
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "direct";
  const Vec u = solve_thermal_stress(m, table, -250.0, bc, options);
  const Stress6 centre = stress_at(m, table, u, -250.0, {8.1, 8.1, 1.1});
  const double hydro = -(-250.0) * table.at(mesh::MaterialId::Silicon).thermal_modulus();
  // Centre normal stresses near the analytic fully-constrained value.
  EXPECT_NEAR(centre[0] / hydro, 1.0, 0.1);
  EXPECT_NEAR(centre[1] / hydro, 1.0, 0.1);
  EXPECT_NEAR(centre[2] / hydro, 1.0, 0.1);
  // von Mises much smaller than the normal stress scale.
  EXPECT_LT(von_mises(centre), 0.1 * hydro);
}

TEST(Solver, TsvBlockPeakStressAtViaInterface) {
  // Physics sanity: the stress concentration sits at/near the via.
  const mesh::TsvGeometry g{15.0, 5.0, 0.5, 50.0};
  const mesh::HexMesh m = mesh::build_tsv_block_mesh(g, {10, 5});
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "direct";
  const Vec u = solve_thermal_stress(m, table, -250.0, bc, options);

  const PlaneGrid grid = make_block_plane_grid(15.0, 1, 1, 30, 25.0);
  const auto vm = to_von_mises(sample_plane_stress(m, table, u, -250.0, grid));
  // Find the peak location.
  std::size_t arg = 0;
  for (std::size_t i = 0; i < vm.size(); ++i) {
    if (vm[i] > vm[arg]) arg = i;
  }
  const double x = grid.xs[arg % grid.xs.size()];
  const double y = grid.ys[arg / grid.xs.size()];
  const double r = std::hypot(x - 7.5, y - 7.5);
  EXPECT_LT(r, 2.0 * g.liner_radius());  // peak within twice the via radius
  EXPECT_GT(vm[arg], 100.0);             // hundreds of MPa scale
}

TEST(Solver, IdenticalCasesSolveBitwiseAlike) {
  // One seeded per-element ΔT passed twice: both cases' loads come from the
  // one colour-order scatter, so the panel's two solutions are bitwise equal.
  const mesh::HexMesh m = mesh::build_array_mesh(mesh::TsvGeometry{}, {8, 6}, 2, 2);
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  Vec delta_t(static_cast<std::size_t>(m.num_elems()));
  std::mt19937_64 rng(67);
  std::uniform_real_distribution<double> draw(-250.0, 40.0);
  for (double& v : delta_t) v = draw(rng);
  FemSolveOptions options;
  options.method = "direct";
  const std::vector<Vec> u =
      solve_thermal_stress_multi(m, MaterialTable::standard(), {delta_t, delta_t}, bc, options);
  ASSERT_EQ(u.size(), 2u);
  ASSERT_EQ(u[0].size(), u[1].size());
  EXPECT_EQ(std::memcmp(u[0].data(), u[1].data(), u[0].size() * sizeof(double)), 0);
}

TEST(Solver, CgAtIterationCapThrowsDidNotConverge) {
  // The reference every accuracy figure rests on must not hand back an
  // unconverged iterate: the shared solve stage's policy holds here too.
  const mesh::HexMesh m = box_mesh(4);
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "cg";
  options.max_iterations = 2;
  try {
    (void)solve_thermal_stress(m, MaterialTable::standard(), -250.0, bc, options);
    FAIL() << "expected SimError(kDidNotConverge)";
  } catch (const core::SimError& e) {
    EXPECT_EQ(e.code(), core::SimErrorCode::kDidNotConverge);
    EXPECT_EQ(e.stage(), "fem.solve");
    EXPECT_NE(e.context().find("iterations=2"), std::string::npos) << e.context();
  }
}

TEST(Solver, DirectPathRecoversInjectedPivotBreakdownByShift) {
  // The direct path factors through the shift-retry ladder: a simulated
  // pivot breakdown at fem.factor yields a degraded, shifted solve.
  const mesh::HexMesh m = box_mesh(3);
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "direct";
  FemSolveStats clean;
  const Vec u_clean =
      solve_thermal_stress(m, MaterialTable::standard(), -250.0, bc, options, &clean);
  EXPECT_FALSE(clean.degraded);

  util::FaultInjector::global().configure("fem.factor:spd:1:1");
  FemSolveStats stats;
  const Vec u = solve_thermal_stress(m, MaterialTable::standard(), -250.0, bc, options, &stats);
  util::FaultInjector::global().reset();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.diagonal_shift, 0.0);
  EXPECT_EQ(stats.num_factorizations, 1);
  EXPECT_NE(u, u_clean);  // the shifted operator's answer, close to the clean one
  EXPECT_LT(la::max_abs_diff(u, u_clean), 1e-6 * la::norm_inf(u_clean));
}

TEST(Solver, UnknownMethodThrows) {
  const mesh::HexMesh m = box_mesh(2);
  const MaterialTable table = MaterialTable::standard();
  const DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  FemSolveOptions options;
  options.method = "multigrid";
  EXPECT_THROW(solve_thermal_stress(m, table, -1.0, bc, options), std::invalid_argument);
}

}  // namespace
}  // namespace ms::fem
