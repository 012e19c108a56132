#include "la/cg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/cholesky.hpp"

namespace ms::la {
namespace {

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
  for (idx_t i = 0; i < n; ++i) b[i] = std::sin(0.3 * i);
  return b;
}

struct PrecondCase {
  const char* name;
};

class CgWithPreconditioners : public ::testing::TestWithParam<const char*> {};

TEST_P(CgWithPreconditioners, MatchesDirectSolve) {
  const CsrMatrix a = laplacian_2d(12);
  const Vec b = smooth_rhs(a.rows());
  const Vec x_direct = SparseCholesky(a).solve(b);

  auto precond = make_preconditioner(GetParam(), a);
  Vec x;
  IterativeOptions options;
  options.rel_tol = 1e-12;
  const IterativeResult result = conjugate_gradient(a, b, x, precond.get(), options);
  EXPECT_TRUE(result.converged) << GetParam();
  EXPECT_LT(max_abs_diff(x, x_direct), 1e-8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Preconds, CgWithPreconditioners,
                         ::testing::Values("none", "jacobi", "ssor"));

TEST(Cg, PreconditioningReducesIterations) {
  const CsrMatrix a = laplacian_2d(20);
  const Vec b = smooth_rhs(a.rows());
  IterativeOptions options;
  options.rel_tol = 1e-10;

  Vec x1, x2;
  const IterativeResult plain = conjugate_gradient(a, b, x1, nullptr, options);
  auto ssor = make_preconditioner("ssor", a);
  const IterativeResult pre = conjugate_gradient(a, b, x2, ssor.get(), options);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const CsrMatrix a = laplacian_2d(4);
  Vec x;
  const IterativeResult result = conjugate_gradient(a, Vec(a.rows(), 0.0), x, nullptr, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(Cg, InitialGuessIsUsed) {
  const CsrMatrix a = laplacian_2d(8);
  const Vec b = smooth_rhs(a.rows());
  Vec x_exact = SparseCholesky(a).solve(b);

  IterativeOptions options;
  options.rel_tol = 1e-10;
  options.use_initial_guess = true;
  Vec x = x_exact;  // start at the solution: should converge instantly
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
}

TEST(Cg, IterationCapReported) {
  const CsrMatrix a = laplacian_2d(16);
  const Vec b = smooth_rhs(a.rows());
  IterativeOptions options;
  options.rel_tol = 1e-14;
  options.max_iterations = 3;
  Vec x;
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_GT(result.residual_norm, 0.0);
}

}  // namespace
}  // namespace ms::la
