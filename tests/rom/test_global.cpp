#include <gtest/gtest.h>

#include <cmath>

#include "core/sim_error.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"
#include "rom/reconstruct.hpp"

namespace ms::rom {
namespace {

mesh::TsvGeometry geometry() { return {15.0, 5.0, 0.5, 50.0}; }
mesh::BlockMeshSpec spec() { return {6, 3}; }

const fem::MaterialTable& table() {
  static const fem::MaterialTable t = fem::MaterialTable::standard();
  return t;
}

const RomModel& tsv_model() {
  static const RomModel m = [] {
    LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 10;
    return run_local_stage(geometry(), spec(), table(), BlockKind::Tsv, options);
  }();
  return m;
}

const RomModel& dummy_model() {
  static const RomModel m = [] {
    LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 10;
    return run_local_stage(geometry(), spec(), table(), BlockKind::Dummy, options);
  }();
  return m;
}

BlockGrid make_grid(int bx, int by) { return BlockGrid(bx, by, 3, 3, 3, 15.0, 50.0); }

TEST(GlobalAssembler, SystemShapeAndSymmetry) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  EXPECT_EQ(problem.num_dofs, grid.num_dofs());
  EXPECT_EQ(problem.stiffness.rows(), grid.num_dofs());
  EXPECT_LT(problem.stiffness.symmetry_error(), 1e-6);
}

TEST(GlobalAssembler, LoadScalesWithThermalLoad) {
  const BlockGrid grid = make_grid(2, 1);
  const GlobalProblem p1 = assemble_global(grid, tsv_model(), nullptr, {}, -100.0);
  const GlobalProblem p2 = assemble_global(grid, tsv_model(), nullptr, {}, -200.0);
  for (std::size_t i = 0; i < p1.rhs.size(); ++i) {
    EXPECT_NEAR(p2.rhs[i], 2.0 * p1.rhs[i], 1e-9);
  }
}

TEST(GlobalAssembler, MaskRequiresDummyModel) {
  const BlockGrid grid = make_grid(2, 2);
  const BlockMask mask{1, 0, 0, 1};
  EXPECT_THROW(assemble_global(grid, tsv_model(), nullptr, mask, -250.0), std::invalid_argument);
  EXPECT_NO_THROW(assemble_global(grid, tsv_model(), &dummy_model(), mask, -250.0));
}

TEST(GlobalAssembler, RejectsBadMaskSize) {
  const BlockGrid grid = make_grid(2, 2);
  EXPECT_THROW(assemble_global(grid, tsv_model(), &dummy_model(), {1, 0}, -250.0),
               std::invalid_argument);
}

TEST(GlobalSolver, CgDirectAgree) {
  const BlockGrid grid = make_grid(3, 2);
  const fem::DirichletBc bc = clamp_top_bottom(grid);

  GlobalSolveOptions cg;
  cg.method = "cg";
  cg.rel_tol = 1e-12;
  GlobalSolveOptions direct;
  direct.method = "direct";

  GlobalProblem p1 = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalProblem p2 = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u_cg = solve_global(p1, bc, cg);
  const Vec u_dir = solve_global(p2, bc, direct);

  const double scale = la::norm_inf(u_dir);
  EXPECT_GT(scale, 0.0);
  EXPECT_LT(la::max_abs_diff(u_cg, u_dir), 1e-6 * scale);
}

TEST(GlobalSolver, ClampedDofsStayZero) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const fem::DirichletBc bc = clamp_top_bottom(grid);
  GlobalSolveStats stats;
  const Vec u = solve_global(problem, bc, {}, &stats);
  EXPECT_TRUE(stats.converged);
  for (idx_t node : grid.nodes_top_bottom()) {
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(u[3 * node + c], 0.0, 1e-12);
  }
  // Mid-height nodes move (Poisson pinch of the clamped array).
  double max_mid = 0.0;
  for (idx_t d = 0; d < grid.num_dofs(); ++d) max_mid = std::max(max_mid, std::fabs(u[d]));
  EXPECT_GT(max_mid, 1e-4);
}

TEST(GlobalSolver, CgAtIterationCapThrowsDidNotConverge) {
  // Stopping at max_iterations without a breakdown is a failed solve, not a
  // result: the caller must not receive the unconverged iterate.
  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalSolveOptions options;
  options.method = "cg";
  options.max_iterations = 2;
  try {
    (void)solve_global(problem, clamp_top_bottom(grid), options);
    FAIL() << "expected SimError(kDidNotConverge)";
  } catch (const core::SimError& e) {
    EXPECT_EQ(e.code(), core::SimErrorCode::kDidNotConverge);
    EXPECT_EQ(e.stage(), "rom.global.solve");
    EXPECT_NE(e.context().find("iterations=2"), std::string::npos) << e.context();
    EXPECT_NE(e.context().find("residual="), std::string::npos) << e.context();
  }
}

TEST(GlobalSolver, SubmodelBoundaryInterpolatesCallback) {
  const BlockGrid grid = make_grid(2, 1);
  // Linear displacement field: u = (ax, by, cz).
  const auto field = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-3 * p.x, -2e-3 * p.y, 5e-4 * p.z};
  };
  const std::function<std::array<double, 3>(const mesh::Point3&)> fn = field;
  const fem::DirichletBc bc = submodel_boundary(grid, fn);
  EXPECT_EQ(bc.size(), 3 * grid.nodes_outer_boundary().size());
  // Spot-check values.
  const auto nodes = grid.nodes_outer_boundary();
  for (std::size_t i = 0; i < nodes.size(); i += 7) {
    const mesh::Point3 p = grid.node_position(nodes[i]);
    EXPECT_DOUBLE_EQ(bc.values[3 * i], 1e-3 * p.x);
    EXPECT_DOUBLE_EQ(bc.values[3 * i + 1], -2e-3 * p.y);
  }
}

TEST(GlobalSolver, DirectPanelIsBitIdenticalWithoutCacheColdAndWarm) {
  // The one direct-solve path: a call without a cache, a cold cache, and a
  // warm cache whose caller leaves the operator unassembled solve the same
  // 3-case panel bit for bit from the same factor. Non-zero boundary values
  // make the rhs half of the lifting non-trivial.
  const BlockGrid grid = make_grid(3, 2);
  const std::function<std::array<double, 3>(const mesh::Point3&)> field =
      [](const mesh::Point3& p) {
        return std::array<double, 3>{1e-3 * p.x, -2e-3 * p.y, 5e-4 * p.z};
      };
  const fem::DirichletBc bc = submodel_boundary(grid, field);
  const BlockLoadField hot(3, 2, Vec{-250.0, -200.0, -150.0, -120.0, -90.0, -60.0});
  const auto extra_rhs = [&] {
    return std::vector<Vec>{
        assemble_global_rhs(grid, tsv_model(), nullptr, {}, hot),
        assemble_global_rhs(grid, tsv_model(), nullptr, {}, BlockLoadField::uniform(-100.0))};
  };
  GlobalSolveOptions options;
  options.method = "direct";

  GlobalProblem plain = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalSolveStats plain_stats;
  const std::vector<Vec> expected =
      solve_global_multi(plain, extra_rhs(), bc, options, &plain_stats);
  ASSERT_EQ(expected.size(), 3u);
  // Without a cache the caller's operator is left lifted, as apply_dirichlet
  // leaves it (and no unlifted copy exists to hold instead).
  GlobalProblem lifted = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  fem::apply_dirichlet(lifted.stiffness, lifted.rhs, bc);
  EXPECT_EQ(plain.stiffness.row_ptr(), lifted.stiffness.row_ptr());
  EXPECT_EQ(plain.stiffness.col_idx(), lifted.stiffness.col_idx());
  EXPECT_EQ(plain.stiffness.values(), lifted.stiffness.values());
  EXPECT_EQ(plain.rhs, lifted.rhs);

  la::FactorCache cache;
  options.factor_cache = &cache;
  options.factor_key = "global";
  GlobalProblem cold = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalSolveStats cold_stats;
  const std::vector<Vec> cold_x = solve_global_multi(cold, extra_rhs(), bc, options, &cold_stats);
  GlobalProblem warm;  // resident key: the load vectors only
  warm.num_dofs = grid.num_dofs();
  warm.rhs = assemble_global_rhs(grid, tsv_model(), nullptr, {}, BlockLoadField::uniform(-250.0));
  GlobalSolveStats warm_stats;
  const std::vector<Vec> warm_x = solve_global_multi(warm, extra_rhs(), bc, options, &warm_stats);

  EXPECT_EQ(cold_x, expected);
  EXPECT_EQ(warm_x, expected);
  for (const GlobalSolveStats* s : {&cold_stats, &warm_stats}) {
    EXPECT_EQ(s->factor_nnz, plain_stats.factor_nnz);
    EXPECT_EQ(s->fill_ratio, plain_stats.fill_ratio);
    EXPECT_EQ(s->num_supernodes, plain_stats.num_supernodes);
    EXPECT_EQ(s->ordering, plain_stats.ordering);
  }
  EXPECT_GT(plain_stats.factor_nnz, 0);
  EXPECT_EQ(plain_stats.num_factorizations, 1);
  EXPECT_EQ(cold_stats.num_factorizations, 1);
  EXPECT_EQ(warm_stats.num_factorizations, 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Reconstruct, RegionShapesAndSubregion) {
  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u = solve_global(problem, clamp_top_bottom(grid), {});
  const int s = tsv_model().samples_per_block;

  const auto full = reconstruct_plane_von_mises(grid, tsv_model(), nullptr, {}, u, -250.0,
                                                BlockRange::all(grid));
  EXPECT_EQ(full.size(), static_cast<std::size_t>(9) * s * s);

  BlockRange inner{1, 2, 1, 2};
  const auto centre = reconstruct_plane_von_mises(grid, tsv_model(), nullptr, {}, u, -250.0, inner);
  EXPECT_EQ(centre.size(), static_cast<std::size_t>(s) * s);

  // The inner block of the full field equals the subregion reconstruction.
  for (int my = 0; my < s; ++my) {
    for (int mx = 0; mx < s; ++mx) {
      const std::size_t full_idx = (static_cast<std::size_t>(s) + my) * (3 * s) + s + mx;
      EXPECT_NEAR(centre[static_cast<std::size_t>(my) * s + mx], full[full_idx], 1e-12);
    }
  }
}

TEST(Reconstruct, FourFoldSymmetryOfCentredArray) {
  // A centred 3x3 array under uniform load must produce a stress field with
  // the symmetry of the square (sample the centre block). Use a sample count
  // whose cell centres avoid element faces: stress is discontinuous across
  // faces and locate() tie-breaks to the +x element, which would make
  // mirrored samples land in different elements.
  LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = 3;
  options.samples_per_block = 8;
  const RomModel model = run_local_stage(geometry(), spec(), table(), BlockKind::Tsv, options);

  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, model, nullptr, {}, -250.0);
  const Vec u = solve_global(problem, clamp_top_bottom(grid), {});
  const int s = model.samples_per_block;
  BlockRange inner{1, 2, 1, 2};
  const auto vm = reconstruct_plane_von_mises(grid, model, nullptr, {}, u, -250.0, inner);
  double max_v = 0.0;
  for (double v : vm) max_v = std::max(max_v, v);
  for (int my = 0; my < s; ++my) {
    for (int mx = 0; mx < s; ++mx) {
      const double a = vm[static_cast<std::size_t>(my) * s + mx];
      const double b = vm[static_cast<std::size_t>(mx) * s + my];                   // transpose
      const double c = vm[static_cast<std::size_t>(my) * s + (s - 1 - mx)];         // mirror x
      EXPECT_NEAR(a, b, 0.02 * max_v);
      EXPECT_NEAR(a, c, 0.02 * max_v);
    }
  }
}

TEST(Reconstruct, DisplacementRequiresSampling) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u = solve_global(problem, clamp_top_bottom(grid), {});
  // tsv_model() was built with displacement sampling on (default) — works.
  EXPECT_NO_THROW(reconstruct_plane_displacement(grid, tsv_model(), nullptr, {}, u, -250.0,
                                                 BlockRange::all(grid)));
  // A model without displacement samples must throw.
  RomModel stripped = tsv_model();
  stripped.displacement_samples = la::DenseMatrix();
  EXPECT_THROW(reconstruct_plane_displacement(grid, stripped, nullptr, {}, u, -250.0,
                                              BlockRange::all(grid)),
               std::logic_error);
}

}  // namespace
}  // namespace ms::rom
