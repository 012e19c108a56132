#include "fem/dirichlet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "fem/assembler.hpp"
#include "la/cholesky.hpp"
#include "mesh/grading.hpp"

namespace ms::fem {
namespace {

mesh::HexMesh box_mesh(int n) {
  const auto c = mesh::uniform_coords(0.0, 1.0, n);
  return mesh::HexMesh(c, c, c);
}

TEST(DirichletBc, ClampNodesExpandsComponents) {
  const DirichletBc bc = DirichletBc::clamp_nodes({3, 7});
  ASSERT_EQ(bc.size(), 6u);
  EXPECT_EQ(bc.dofs[0], 9);
  EXPECT_EQ(bc.dofs[5], 23);
  for (double v : bc.values) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DirichletBc, ClampNodesWithValues) {
  const DirichletBc bc = DirichletBc::clamp_nodes({2}, {0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(bc.values[2], 0.3);
  EXPECT_THROW(DirichletBc::clamp_nodes({1, 2}, {0.1}), std::invalid_argument);
}

/// Solve K u = f under `bc` by elimination: factor K_ff, reduce f, expand.
Vec solve_split(const la::CsrMatrix& k, const Vec& f, const DirichletBc& bc) {
  const DirichletSplit split(k.rows(), bc);
  Vec reduced(static_cast<std::size_t>(split.num_free()));
  split.reduce(split.coupling(k), f.data(), split.values().data(), reduced.data());
  const Vec x_f = la::SparseCholesky(split.free_block(k)).solve(reduced);
  Vec u(f.size());
  split.expand(x_f.data(), split.values().data(), u.data());
  return u;
}

/// Clamped top and bottom of a box, with non-zero prescribed values.
DirichletBc moving_clamp(const mesh::HexMesh& m) {
  DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  for (std::size_t k = 0; k < bc.values.size(); ++k) {
    bc.values[k] = 0.01 * static_cast<double>(k % 7) - 0.02;
  }
  return bc;
}

TEST(DirichletSplit, ConstrainedEntriesEqualPrescribedValues) {
  const mesh::HexMesh m = box_mesh(3);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  Vec f = sys.thermal_load;
  la::scale(f, -100.0);  // some thermal load
  const DirichletBc bc = moving_clamp(m);
  const Vec u = solve_split(sys.stiffness, f, bc);
  ASSERT_EQ(u.size(), f.size());
  for (std::size_t k = 0; k < bc.dofs.size(); ++k) EXPECT_EQ(u[bc.dofs[k]], bc.values[k]);
}

TEST(DirichletSplit, FreeRowsHoldWithinRoundoff) {
  // The reduced system K_ff x_f = f_f − K_fc g is the free rows of K u = f
  // with u carrying g: the largest free-row residual stays within n eps of
  // the largest row magnitude |f_r| + sum |K_rk u_k|.
  const mesh::HexMesh m = box_mesh(3);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  Vec f = sys.thermal_load;
  la::scale(f, -100.0);
  const DirichletBc bc = moving_clamp(m);
  const Vec u = solve_split(sys.stiffness, f, bc);

  std::vector<char> constrained(f.size(), 0);
  for (idx_t d : bc.dofs) constrained[d] = 1;
  const la::CsrMatrix& k = sys.stiffness;
  double residual = 0.0;
  double scale = 0.0;
  for (idx_t r = 0; r < k.rows(); ++r) {
    if (constrained[r]) continue;
    double ku = 0.0;
    double magnitude = std::abs(f[r]);
    for (la::offset_t p = k.row_ptr()[r]; p < k.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      ku += k.values()[p] * u[k.col_idx()[p]];
      magnitude += std::abs(k.values()[p] * u[k.col_idx()[p]]);
    }
    residual = std::max(residual, std::abs(ku - f[r]));
    scale = std::max(scale, magnitude);
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LE(residual,
            static_cast<double>(k.rows()) * std::numeric_limits<double>::epsilon() * scale);
}

TEST(DirichletSplit, DuplicateConstraintsLastValueWins) {
  const mesh::HexMesh m = box_mesh(2);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  DirichletBc bc = DirichletBc::clamp_nodes(m.top_bottom_nodes());
  bc.add(4, 0.5);
  bc.add(4, -1.25);
  const DirichletSplit split(sys.num_dofs, bc);
  EXPECT_EQ(split.num_free(), sys.num_dofs - static_cast<idx_t>(3 * m.top_bottom_nodes().size()));
  EXPECT_EQ(split.values()[split.partition().bc_map[4]], -1.25);
  const Vec u = solve_split(sys.stiffness, sys.thermal_load, bc);
  EXPECT_EQ(u[4], -1.25);
  EXPECT_THROW(DirichletSplit(sys.num_dofs, DirichletBc{{sys.num_dofs}, {0.0}}),
               std::invalid_argument);
}

TEST(PartitionDofs, SplitsAndNumbersConsistently) {
  const DofPartition part = partition_dofs(6, {1, 4});
  EXPECT_EQ(part.num_free, 4);
  EXPECT_EQ(part.num_bc, 2);
  EXPECT_EQ(part.free_map[0], 0);
  EXPECT_EQ(part.free_map[1], -1);
  EXPECT_EQ(part.bc_map[1], 0);
  EXPECT_EQ(part.bc_map[4], 1);
  EXPECT_EQ(part.free_map[5], 3);
}

TEST(PartitionDofs, DuplicateConstraintsAreIdempotent) {
  const DofPartition part = partition_dofs(4, {2, 2, 2});
  EXPECT_EQ(part.num_bc, 1);
  EXPECT_EQ(part.num_free, 3);
}

}  // namespace
}  // namespace ms::fem
