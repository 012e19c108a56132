#include "fem/dirichlet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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
  split.lift(split.coupling(k), split.values().data(), reduced.data());
  split.reduce(f.data(), reduced.data(), reduced.data());
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

TEST(DirichletSplit, RejectsValuesOfOtherLength) {
  // The constructor reads one value per constrained dof; a short value list
  // used to be caught only by an assert, which release builds compile out.
  DirichletBc short_values{{0, 1, 2}, {0.0, 0.0}};
  EXPECT_THROW(DirichletSplit(9, short_values), std::invalid_argument);
  DirichletBc long_values{{0}, {0.0, 1.0}};
  EXPECT_THROW(DirichletSplit(9, long_values), std::invalid_argument);
}

/// The per-column reduction of f under g that one lift per panel replaced:
/// each free row of K_fc summed from zero in stored order, then subtracted
/// from f.
Vec reduce_per_column(const la::CsrMatrix& coupling, const DofPartition& part, const Vec& f,
                      const Vec& g) {
  Vec out(static_cast<std::size_t>(part.num_free));
  for (idx_t d = 0; d < static_cast<idx_t>(f.size()); ++d) {
    const idx_t r = part.free_map[d];
    if (r < 0) continue;
    double sum = 0.0;
    for (la::offset_t k = coupling.row_ptr()[r];
         k < coupling.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += coupling.values()[k] * g[coupling.col_idx()[k]];
    }
    out[r] = f[d] - sum;
  }
  return out;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DirichletSplit, OneLiftPerPanelMatchesPerColumnReductionBitwise) {
  // One lift K_fc g serves every right-hand side of a panel. Each reduced
  // right-hand side, and the direct solve built on them, must keep the bits
  // of the per-column reduction, signed zeros included, under non-zero and
  // under zero boundary values (where -0 - (+0) must stay -0).
  const mesh::HexMesh m = box_mesh(3);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  std::vector<Vec> panel(4, sys.thermal_load);
  la::scale(panel[0], -100.0);
  la::scale(panel[1], 37.5);
  for (std::size_t d = 0; d < panel[2].size(); ++d) panel[2][d] = d % 2 == 0 ? -0.0 : 0.0;
  for (std::size_t d = 0; d < panel[3].size(); d += 3) panel[3][d] = d % 2 == 0 ? -0.0 : 0.0;
  for (const bool moving : {true, false}) {
    const DirichletBc bc =
        moving ? moving_clamp(m) : DirichletBc::clamp_nodes(m.top_bottom_nodes());
    const DirichletSplit split(sys.num_dofs, bc);
    SplitOperator op = split.extract(sys.stiffness);
    const la::CsrMatrix k_ff = op.free;
    const la::CsrMatrix k_fc = op.coupling;
    Vec lift(static_cast<std::size_t>(split.num_free()));
    split.lift(k_fc, split.values().data(), lift.data());
    std::vector<Vec> expected;
    for (std::size_t c = 0; c < panel.size(); ++c) {
      expected.push_back(reduce_per_column(k_fc, split.partition(), panel[c], split.values()));
      Vec reduced(lift.size());
      split.reduce(panel[c].data(), lift.data(), reduced.data());
      EXPECT_TRUE(same_bits(reduced, expected.back()))
          << (moving ? "moving" : "clamped") << " boundary, column " << c;
    }
    if (!moving) {  // under zero values the panel's -0 entries stay -0
      EXPECT_TRUE(std::any_of(expected[2].begin(), expected[2].end(),
                              [](double v) { return v == 0.0 && std::signbit(v); }));
    }

    const std::string no_key;
    const core::CancelToken never_cancelled;
    SolveStats stats;
    const std::vector<Vec> solved =
        solve_linear([&] { return op; }, panel, split, {"direct", "none", 0.0, 0},
                     {nullptr, no_key, never_cancelled, "fem"}, stats);
    const std::vector<Vec> free_x = la::SparseCholesky(k_ff).solve_multi(expected);
    for (std::size_t c = 0; c < panel.size(); ++c) {
      Vec u(panel[c].size());
      split.expand(free_x[c].data(), split.values().data(), u.data());
      EXPECT_TRUE(same_bits(solved[c], u))
          << (moving ? "moving" : "clamped") << " boundary, solve " << c;
    }
  }
}

TEST(PartitionDofs, SplitsAndNumbersConsistently) {
  const DirichletSplit split(6, DirichletBc{{1, 4}, {0.5, -0.5}});
  const DofPartition& part = split.partition();
  EXPECT_EQ(part.num_free, 4);
  EXPECT_EQ(part.num_bc, 2);
  EXPECT_EQ(part.free_map[0], 0);
  EXPECT_EQ(part.free_map[1], -1);
  EXPECT_EQ(part.bc_map[1], 0);
  EXPECT_EQ(part.bc_map[4], 1);
  EXPECT_EQ(part.free_map[5], 3);
  // The partition writes one mark per constrained dof, so a dof outside the
  // range must be rejected before it is written.
  EXPECT_THROW(DirichletSplit(6, DirichletBc{{6}, {0.0}}), std::invalid_argument);
  EXPECT_THROW(DirichletSplit(6, DirichletBc{{-1}, {0.0}}), std::invalid_argument);
}

TEST(PartitionDofs, DuplicateConstraintsAreIdempotent) {
  const DirichletSplit split(4, DirichletBc{{2, 2, 2}, {1.0, 2.0, 3.0}});
  const DofPartition& part = split.partition();
  EXPECT_EQ(part.num_bc, 1);
  EXPECT_EQ(part.num_free, 3);
  EXPECT_EQ(split.values(), Vec{3.0});  // the last value wins
}

}  // namespace
}  // namespace ms::fem
