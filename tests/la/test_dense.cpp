#include "la/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace ms::la {
namespace {

/// Deterministic pseudo-random matrix generator for property sweeps.
DenseMatrix random_matrix(idx_t rows, idx_t cols, unsigned seed) {
  DenseMatrix m(rows, cols);
  unsigned state = seed * 2654435761u + 1u;
  for (idx_t i = 0; i < rows; ++i) {
    for (idx_t j = 0; j < cols; ++j) {
      state = state * 1664525u + 1013904223u;
      m(i, j) = static_cast<double>(state % 2000) / 1000.0 - 1.0;
    }
  }
  return m;
}

/// SPD matrix A = R^T R + n I.
DenseMatrix random_spd(idx_t n, unsigned seed) {
  const DenseMatrix r = random_matrix(n, n, seed);
  DenseMatrix a = r.transpose_matmul(r);
  for (idx_t i = 0; i < n; ++i) a(i, i) += n;
  return a;
}

TEST(DenseMatrix, MulAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Vec y;
  a.mul({1.0, 1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  Vec z;
  a.mul_transpose({1.0, 1.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
  const DenseMatrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(DenseMatrix, MatmulMatchesManual) {
  const DenseMatrix a = random_matrix(3, 4, 1);
  const DenseMatrix b = random_matrix(4, 2, 2);
  const DenseMatrix c = a.matmul(b);
  for (idx_t i = 0; i < 3; ++i) {
    for (idx_t j = 0; j < 2; ++j) {
      double sum = 0.0;
      for (idx_t k = 0; k < 4; ++k) sum += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), sum, 1e-14);
    }
  }
}

TEST(DenseMatrix, TransposeMatmulMatchesExplicitTranspose) {
  const DenseMatrix a = random_matrix(5, 3, 3);
  const DenseMatrix b = random_matrix(5, 2, 4);
  const DenseMatrix left = a.transpose_matmul(b);
  const DenseMatrix right = a.transposed().matmul(b);
  EXPECT_LT(left.frobenius_diff(right), 1e-13);
}

TEST(DenseMatrix, SymmetryError) {
  DenseMatrix a = DenseMatrix::identity(3);
  EXPECT_DOUBLE_EQ(a.symmetry_error(), 0.0);
  a(0, 2) = 5.0;
  EXPECT_DOUBLE_EQ(a.symmetry_error(), 5.0);
}

TEST(DenseMatrix, RowsTimesColsMatchesNaiveProduct) {
  // Every tile shape of the kernel (row pairs, the odd last row, 4-column
  // tiles and their 1-3 column tails) bit for bit against one k-ascending
  // sum per entry; the slot past the product must stay untouched.
  const idx_t nk = 37;
  const idx_t row0 = 5;
  const DenseMatrix m = random_matrix(row0 + 6, nk, 5);
  const DenseMatrix panel = random_matrix(11, nk, 6);  // row j = column j of the panel
  constexpr double kSentinel = 7.25;
  for (const int nr : {1, 2, 3, 6}) {
    for (idx_t num_cols = 0; num_cols <= 11; ++num_cols) {
      const std::size_t size = static_cast<std::size_t>(nr) * num_cols;
      std::vector<double> out(size + 1, kSentinel);
      rows_times_cols(m, row0, nr, panel.data().data(), num_cols, out.data());
      std::vector<double> expected(size + 1, kSentinel);
      for (int ri = 0; ri < nr; ++ri) {
        for (idx_t j = 0; j < num_cols; ++j) {
          double sum = 0.0;
          for (idx_t k = 0; k < nk; ++k) sum += m(row0 + ri, k) * panel(j, k);
          expected[static_cast<std::size_t>(ri) * num_cols + j] = sum;
        }
      }
      EXPECT_EQ(std::memcmp(out.data(), expected.data(), out.size() * sizeof(double)), 0)
          << "nr " << nr << ", num_cols " << num_cols;
    }
  }
}

class DenseLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(DenseLuProperty, SolveRecoversKnownSolution) {
  const idx_t n = 2 + GetParam() % 9;
  const unsigned seed = static_cast<unsigned>(GetParam());
  DenseMatrix a = random_matrix(n, n, seed);
  for (idx_t i = 0; i < n; ++i) a(i, i) += n;  // diagonally dominant
  Vec x_true(n);
  for (idx_t i = 0; i < n; ++i) x_true[i] = std::sin(i + 1.0 + seed);
  Vec b;
  a.mul(x_true, b);
  const DenseLu lu(a);
  const Vec x = lu.solve(b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseLuProperty, ::testing::Range(1, 13));

TEST(DenseLu, PivotingHandlesZeroLeadingEntry) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const DenseLu lu(a);
  const Vec x = lu.solve(Vec{2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-14);
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2);  // rank 1
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(DenseLu{a}, std::runtime_error);
}

TEST(DenseLu, MultiRhsSolve) {
  const DenseMatrix a = random_spd(4, 7);
  const DenseMatrix b = random_matrix(4, 3, 8);
  const DenseLu lu(a);
  const DenseMatrix x = lu.solve(b);
  const DenseMatrix ax = a.matmul(x);
  EXPECT_LT(ax.frobenius_diff(b), 1e-9);
}

class DenseCholeskyProperty : public ::testing::TestWithParam<int> {};

TEST_P(DenseCholeskyProperty, MatchesLuOnSpd) {
  const idx_t n = 3 + GetParam() % 7;
  const DenseMatrix a = random_spd(n, static_cast<unsigned>(GetParam()));
  Vec b(n);
  for (idx_t i = 0; i < n; ++i) b[i] = std::cos(i + 0.5);
  const DenseCholesky chol(a);
  const DenseLu lu(a);
  EXPECT_LT(max_abs_diff(chol.solve(b), lu.solve(b)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseCholeskyProperty, ::testing::Range(1, 9));

TEST(DenseCholesky, RejectsIndefinite) {
  DenseMatrix a = DenseMatrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_THROW(DenseCholesky{a}, std::runtime_error);
}

}  // namespace
}  // namespace ms::la
