// Iterative-solver breakdown: on an indefinite or non-finite operator CG
// must report a *structured* failure (breakdown flag + reason) instead of
// silently stalling, diverging, or emitting NaN into the solution. The
// sweep engine turns these into kDidNotConverge scenario failures, so the
// contract here is load-bearing for the robustness layer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "la/cg.hpp"
#include "la/vec.hpp"

namespace ms::la {
namespace {

CsrMatrix diagonal(std::initializer_list<double> entries) {
  const idx_t n = static_cast<idx_t>(entries.size());
  TripletList t(n, n);
  idx_t i = 0;
  for (double d : entries) {
    t.add(i, i, d);
    ++i;
  }
  return CsrMatrix::from_triplets(t);
}

TEST(SolverBreakdown, CgReportsIndefiniteOperator) {
  // diag(1, -1) with b = (1, 1): the first search direction has p.Ap = 0,
  // which CG's SPD assumption cannot survive.
  const CsrMatrix a = diagonal({1.0, -1.0});
  const Vec b(2, 1.0);
  Vec x(2, 0.0);
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, {});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_EQ(std::string(result.breakdown_reason), "indefinite operator (p.Ap <= 0)");
  EXPECT_TRUE(all_finite(x));  // the last consistent iterate, never NaN
}

TEST(SolverBreakdown, CgReportsNonFiniteOperator) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, std::numeric_limits<double>::quiet_NaN());
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  const Vec b(2, 1.0);
  Vec x(2, 0.0);
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, {});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_EQ(std::string(result.breakdown_reason), "non-finite curvature p.Ap");
}

TEST(SolverBreakdown, HealthySystemsStillConvergeCleanly) {
  // The breakdown guards must not misfire on a well-posed SPD solve.
  const CsrMatrix a = diagonal({4.0, 3.0, 2.0, 1.0});
  const Vec b(4, 1.0);
  Vec x_cg(4, 0.0);
  const IterativeResult cg = conjugate_gradient(a, b, x_cg, nullptr, {});
  EXPECT_TRUE(cg.converged);
  EXPECT_FALSE(cg.breakdown);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x_cg[i], 1.0 / static_cast<double>(4 - i), 1e-8);
  }
}

}  // namespace
}  // namespace ms::la
