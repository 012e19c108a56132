// la::factor_with_shift_retry: clean SPD matrices factor unshifted, an
// injected pivot breakdown drives the escalating diagonal-shift ladder, and
// a genuinely indefinite operator that no ladder shift can rescue still
// fails with the classified NotPositiveDefiniteError.

#include "la/shift_retry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/errors.hpp"
#include "util/fault_injector.hpp"

namespace ms::la {
namespace {

CsrMatrix spd_tridiagonal(idx_t n) {
  TripletList t(n, n);
  for (idx_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0);
    if (i > 0) t.add(i, i - 1, -1.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  return CsrMatrix::from_triplets(t);
}

TEST(ShiftRetry, CleanMatrixFactorsWithoutShift) {
  util::FaultInjector::global().reset();
  const CsrMatrix a = spd_tridiagonal(12);
  const ShiftRetryResult result = factor_with_shift_retry(a, "test.factor");
  ASSERT_NE(result.factor, nullptr);
  EXPECT_EQ(result.shift, 0.0);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(result.degraded());
}

TEST(ShiftRetry, InjectedBreakdownEscalatesToFirstWorkingShift) {
  util::FaultInjector::global().configure("test.factor:spd:1:1");
  const CsrMatrix a = spd_tridiagonal(12);
  const ShiftRetryResult result = factor_with_shift_retry(a, "test.factor");
  util::FaultInjector::global().reset();

  // The matrix itself is SPD, so the very first ladder rung succeeds:
  // shift = 1e-12 * ||diag||_inf = 1e-12 * 4. Attempts counts the
  // (simulated) clean try plus the one shifted refactorization.
  ASSERT_NE(result.factor, nullptr);
  EXPECT_TRUE(result.degraded());
  EXPECT_DOUBLE_EQ(result.shift, 1e-12 * 4.0);
  EXPECT_EQ(result.attempts, 2);

  // The shifted factor still solves the (near-identical) system.
  const Vec b(12, 1.0);
  const Vec x = result.factor->solve(b);
  Vec ax(12, 0.0);
  a.mul(x, ax);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-8);
}

TEST(ShiftRetry, HopelesslyIndefiniteMatrixStillFailsClassified) {
  util::FaultInjector::global().reset();
  // diag(1, -1): the ladder caps at 1e-12 * 2^7 * ||diag||,
  // far below the unit shift this operator would need.
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  try {
    (void)factor_with_shift_retry(a, "test.factor");
    FAIL() << "expected NotPositiveDefiniteError";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_NE(std::string(e.what()).find("test.factor"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("still indefinite"), std::string::npos);
  }
}

}  // namespace
}  // namespace ms::la
