// The fill-reducing order each solver factors under, as its stats report
// it. An operator assembled on a hex mesh (steady conduction, the θ-stepper,
// the fine FEM, the local stage) is ordered by its grid's nested
// dissection; the ROM global lattice, which has no grid, by AMD. A
// shift-retried grid operator keeps its grid order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fem/assembler.hpp"
#include "fem/solver.hpp"
#include "la/cholesky.hpp"
#include "mesh/tsv_block.hpp"
#include "obs/metrics.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"
#include "thermal/thermal_solver.hpp"
#include "util/fault_injector.hpp"

namespace ms {
namespace {

const std::string kGridOrder = "nested-dissection";

/// A 30 x 30 x 50 µm box, 3 x 3 x 4 elements.
mesh::HexMesh box_mesh() {
  const auto lines = [](int n, double length) {
    std::vector<double> v(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) v[i] = length * i / n;
    return v;
  };
  return mesh::HexMesh(lines(3, 30.0), lines(3, 30.0), lines(4, 50.0));
}

thermal::ConductivityField silicon(const mesh::HexMesh& mesh) {
  const la::Vec k(static_cast<std::size_t>(mesh.num_elems()), 149.0);
  return {k, k};
}

TEST(FactorOrdering, MeshSolversReportTheGridOrder) {
  const mesh::HexMesh mesh = box_mesh();
  const thermal::ConductivityField k = silicon(mesh);
  const thermal::PowerMap low(3, 3, 30.0, 30.0, 10.0);

  thermal::ThermalSolveOptions steady;
  steady.method = "direct";
  thermal::ThermalSolveStats steady_stats;
  (void)thermal::solve_power_map(mesh, k, low, steady, &steady_stats);
  EXPECT_EQ(steady_stats.ordering, kGridOrder);

  thermal::PowerMap high = low;
  high.add_gaussian_hotspot(15.0, 15.0, 8.0, 300.0);
  const thermal::PowerTrace trace = thermal::PowerTrace::square_wave(low, high, 60e-6, 0.4, 1);
  thermal::BlockReduction reduction;
  reduction.blocks_x = reduction.blocks_y = 3;
  reduction.pitch = 10.0;
  thermal::TransientSolveOptions transient;
  transient.time_step = 1e-5;
  const la::Vec capacity(static_cast<std::size_t>(mesh.num_elems()), 1.63e6);
  thermal::TransientSolveStats stepper_stats;
  (void)thermal::solve_power_trace(mesh, k, capacity, trace, reduction, transient,
                                   &stepper_stats);
  EXPECT_EQ(stepper_stats.ordering, kGridOrder);

  fem::FemSolveOptions fine;
  fine.method = "direct";
  fem::FemSolveStats fine_stats;
  (void)fem::solve_thermal_stress(mesh, fem::MaterialTable::standard(), -250.0,
                                  fem::DirichletBc::clamp_nodes(mesh.top_bottom_nodes()), fine,
                                  &fine_stats);
  EXPECT_EQ(fine_stats.ordering, kGridOrder);
}

TEST(FactorOrdering, LocalStageUsesTheBlockGridOrderAndTheGlobalStageAmd) {
  const mesh::TsvGeometry geometry{15.0, 5.0, 0.5, 50.0};
  const mesh::BlockMeshSpec spec{6, 3};
  const fem::MaterialTable materials = fem::MaterialTable::standard();
  rom::LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = 3;
  options.samples_per_block = 10;
  const rom::RomModel model =
      rom::run_local_stage(geometry, spec, materials, rom::BlockKind::Tsv, options);
  // The local stage keeps its one factor to itself; the registry's gauge of
  // the last factorization tells which order it used.
  const double local_nnz =
      obs::MetricRegistry::global().gauge("la.cholesky.factor_nnz").value();

  const mesh::HexMesh block = mesh::build_tsv_block_mesh(geometry, spec);
  const fem::AssembledSystem sys = fem::assemble_system(block, materials);
  const fem::DirichletSplit split(sys.num_dofs,
                                  fem::DirichletBc::clamp_nodes(block.boundary_nodes()));
  const la::CsrMatrix a_ff = split.free_block(sys.stiffness);
  const la::SparseCholesky grid(a_ff, split.free_order(fem::stiffness_order(block)));
  const la::SparseCholesky amd(a_ff);
  EXPECT_EQ(grid.ordering_name(), kGridOrder);
  EXPECT_EQ(local_nnz, static_cast<double>(grid.factor_nnz()));
  EXPECT_NE(grid.factor_nnz(), amd.factor_nnz());

  const rom::BlockGrid lattice(2, 2, 3, 3, 3, geometry.pitch, geometry.height);
  rom::GlobalProblem problem = rom::assemble_global(lattice, model, nullptr, {}, -250.0);
  rom::GlobalSolveOptions global;
  global.method = "direct";
  rom::GlobalSolveStats global_stats;
  (void)rom::solve_global(problem, rom::clamp_top_bottom(lattice), global, &global_stats);
  EXPECT_EQ(global_stats.ordering, "amd");
}

TEST(FactorOrdering, ShiftRetriedGridOperatorKeepsTheGridOrder) {
  // Every shifted attempt of the ladder factors under the operator's own
  // order: same order, so the same fill as the clean factor.
  const mesh::HexMesh mesh = box_mesh();
  const thermal::ConductivityField k = silicon(mesh);
  const thermal::PowerMap power(3, 3, 30.0, 30.0, 10.0);
  thermal::ThermalSolveOptions options;
  options.method = "direct";
  thermal::ThermalSolveStats clean;
  (void)thermal::solve_power_map(mesh, k, power, options, &clean);

  util::FaultInjector::global().configure("thermal.steady.factor:spd:1:1");
  thermal::ThermalSolveStats shifted;
  (void)thermal::solve_power_map(mesh, k, power, options, &shifted);
  util::FaultInjector::global().reset();
  EXPECT_TRUE(shifted.degraded);
  EXPECT_GT(shifted.diagonal_shift, 0.0);
  EXPECT_EQ(shifted.ordering, kGridOrder);
  EXPECT_EQ(shifted.factor_nnz, clean.factor_nnz);
  EXPECT_EQ(shifted.num_supernodes, clean.num_supernodes);
}

}  // namespace
}  // namespace ms
