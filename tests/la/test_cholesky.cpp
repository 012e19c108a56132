#include "la/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "la/cholesky_oracles.hpp"
#include "la/dense.hpp"

namespace ms::la {
namespace {

/// 2-D 5-point Laplacian on an m x m grid (SPD, sparse, realistic fill).
CsrMatrix laplacian_2d(idx_t m) {
  const idx_t n = m * m;
  TripletList t(n, n);
  for (idx_t j = 0; j < m; ++j) {
    for (idx_t i = 0; i < m; ++i) {
      const idx_t u = j * m + i;
      t.add(u, u, 4.0);
      if (i > 0) t.add(u, u - 1, -1.0);
      if (i + 1 < m) t.add(u, u + 1, -1.0);
      if (j > 0) t.add(u, u - m, -1.0);
      if (j + 1 < m) t.add(u, u + m, -1.0);
    }
  }
  return CsrMatrix::from_triplets(t);
}

Vec smooth_rhs(idx_t n) {
  Vec b(n);
  for (idx_t i = 0; i < n; ++i) b[i] = std::sin(0.1 * i) + 0.3 * std::cos(0.05 * i);
  return b;
}

class CholeskyGridSizes : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyGridSizes, ResidualIsTiny) {
  const idx_t m = GetParam();
  const CsrMatrix a = laplacian_2d(m);
  const Vec b = smooth_rhs(a.rows());
  const SparseCholesky chol(a);
  const Vec x = chol.solve(b);
  Vec ax;
  a.mul(x, ax);
  EXPECT_LT(max_abs_diff(ax, b), 1e-10) << "grid " << m << "x" << m;
}

INSTANTIATE_TEST_SUITE_P(Grids, CholeskyGridSizes, ::testing::Values(2, 3, 5, 8, 13, 21));

TEST(SparseCholesky, MatchesDenseCholesky) {
  const CsrMatrix a = laplacian_2d(4);
  DenseMatrix ad(a.rows(), a.cols());
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t j = 0; j < a.cols(); ++j) ad(i, j) = a.coeff(i, j);
  }
  const Vec b = smooth_rhs(a.rows());
  const Vec sparse_x = SparseCholesky(a).solve(b);
  const Vec dense_x = DenseCholesky(ad).solve(b);
  EXPECT_LT(max_abs_diff(sparse_x, dense_x), 1e-11);
}

TEST(SparseCholesky, AllOrderingsAndMethodsAgree) {
  // The supernodal AMD solve against the simplicial oracle under AMD, RCM
  // and the natural ordering: every ordering factors the same operator.
  const CsrMatrix a = laplacian_2d(7);
  const Vec b = smooth_rhs(a.rows());
  const SparseCholesky chol(a);
  const Vec x = chol.solve(b);
  const std::pair<const char*, Permutation> orderings[] = {
      {"amd", chol.permutation()},
      {"rcm", oracle::reverse_cuthill_mckee(a)},
      {"natural", Permutation::identity(a.rows())}};
  for (const auto& [name, p] : orderings) {
    const oracle::SimplicialFactor si = oracle::simplicial_cholesky(a, p);
    EXPECT_LT(max_abs_diff(oracle::simplicial_solve(si, b), x), 1e-11) << name;
  }
}

TEST(SparseCholesky, AmdReducesFillBelowRcm) {
  // On a 2-D grid AMD must not lose to RCM; the decisive 3-D case is covered
  // in test_ordering with mesh matrices.
  const CsrMatrix a = laplacian_2d(15);
  const SparseCholesky amd(a);
  const oracle::SimplicialFactor rcm =
      oracle::simplicial_cholesky(a, oracle::reverse_cuthill_mckee(a));
  EXPECT_LE(amd.factor_nnz(), rcm.nnz());
  EXPECT_GT(amd.factor_nnz(), a.nnz() / 2);  // sanity: factor holds the matrix
  EXPECT_GT(amd.fill_ratio(), 1.0);
  EXPECT_EQ(std::string(amd.ordering_name()), "amd");
}

TEST(SparseCholesky, SupernodalAndSimplicialFactorsMatch) {
  const CsrMatrix a = laplacian_2d(12);
  const SparseCholesky sn(a);
  const oracle::SimplicialFactor si = oracle::simplicial_cholesky(a, sn.permutation());
  ASSERT_EQ(sn.factor_nnz(), si.nnz());
  EXPECT_GT(sn.num_supernodes(), 0);
  EXPECT_LT(sn.num_supernodes(), sn.order());  // panels really group columns

  std::vector<offset_t> cp_sn;
  std::vector<idx_t> ri_sn;
  std::vector<double> v_sn;
  sn.extract_factor(cp_sn, ri_sn, v_sn);
  ASSERT_EQ(cp_sn, si.col_ptr);
  ASSERT_EQ(ri_sn, si.row_idx);
  double max_l = 0.0, max_diff = 0.0;
  for (std::size_t k = 0; k < si.values.size(); ++k) {
    max_l = std::max(max_l, std::abs(si.values[k]));
    max_diff = std::max(max_diff, std::abs(v_sn[k] - si.values[k]));
  }
  EXPECT_LT(max_diff / max_l, 1e-12);
}

TEST(SparseCholesky, SolveMultiMatchesColumnwiseSolvesBitwise) {
  const CsrMatrix a = laplacian_2d(9);
  const idx_t n = a.rows();
  const idx_t nrhs = 5;
  Vec panel(static_cast<std::size_t>(n) * nrhs);
  for (idx_t r = 0; r < nrhs; ++r) {
    for (idx_t i = 0; i < n; ++i) {
      panel[static_cast<std::size_t>(r) * n + i] = std::cos(0.07 * i + r);
    }
  }
  const SparseCholesky chol(a);
  Vec x_panel(panel.size()), work;
  chol.solve_multi_with(panel.data(), x_panel.data(), nrhs, work);
  for (idx_t r = 0; r < nrhs; ++r) {
    const Vec b(panel.begin() + static_cast<std::size_t>(r) * n,
                panel.begin() + static_cast<std::size_t>(r + 1) * n);
    Vec x;
    chol.solve_with(b, x, work);
    for (idx_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_panel[static_cast<std::size_t>(r) * n + i], x[i]) << "rhs " << r << " dof " << i;
    }
  }
}

TEST(SparseCholesky, RejectsIndefinite) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  // The supernodal factor, and the simplicial oracle under the natural
  // ordering (which meets the negative pivot last).
  EXPECT_THROW(SparseCholesky{a}, std::runtime_error);
  EXPECT_THROW((void)oracle::simplicial_cholesky(a, Permutation::identity(2)),
               std::runtime_error);
}

TEST(SparseCholesky, RejectsRectangular) {
  TripletList t(2, 3);
  t.add(0, 0, 1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  EXPECT_THROW(SparseCholesky{a}, std::invalid_argument);
}

TEST(SparseCholesky, MultipleSolvesReuseFactor) {
  const CsrMatrix a = laplacian_2d(6);
  const SparseCholesky chol(a);
  Vec x, work;
  for (int rhs = 0; rhs < 5; ++rhs) {
    Vec b(a.rows());
    for (idx_t i = 0; i < a.rows(); ++i) b[i] = std::sin(0.2 * i + rhs);
    chol.solve_with(b, x, work);
    Vec ax;
    a.mul(x, ax);
    EXPECT_LT(max_abs_diff(ax, b), 1e-10);
  }
}

TEST(SparseCholesky, MemoryBytesCoversFactorAndPermutation) {
  const CsrMatrix a = laplacian_2d(8);
  const SparseCholesky chol(a);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  // No copy of the matrix is made, so the ledger owns the factor and the
  // two permutation arrays. Every column's own row lies in its supernode's
  // pattern, so the row patterns hold at least n indices, and the
  // column-to-supernode map holds exactly n.
  const std::size_t factor_values = static_cast<std::size_t>(chol.factor_nnz()) * sizeof(double);
  const std::size_t patterns_and_map = 2 * n * sizeof(idx_t);
  const std::size_t permutation = 2 * n * sizeof(idx_t);
  const std::size_t floor_bytes = factor_values + patterns_and_map + permutation;
  // The supernode boundaries and panel offsets are part of the ledger too,
  // so the floor is strict.
  EXPECT_GT(chol.memory_bytes(), floor_bytes);
  EXPECT_EQ(chol.order(), 64);
}

}  // namespace
}  // namespace ms::la
