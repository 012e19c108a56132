// core::CancelToken semantics: inert-by-default, classified throws from
// check(), deadline expiry, and parent-chain observation (the batch-cancel
// mechanism behind SweepOptions::max_failures).

#include "core/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "core/health.hpp"
#include "core/sim_error.hpp"

namespace ms::core {
namespace {

TEST(CancelToken, DefaultTokenIsInertAndNeverThrows) {
  const CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
  token.request_cancel();  // no-op, not UB
  EXPECT_NO_THROW(token.check("stage"));
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, RequestCancelThrowsClassifiedAtCheck) {
  const CancelToken token = CancelToken::cancellable();
  EXPECT_NO_THROW(token.check("stage"));
  token.request_cancel();
  try {
    token.check("global.solve");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrorCode::kCancelled);
    EXPECT_EQ(e.stage(), "global.solve");
  }
}

TEST(CancelToken, DeadlineExpiryThrowsClassifiedAtCheck) {
  const CancelToken token = CancelToken::with_deadline(1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.deadline_expired());
  try {
    token.check("thermal.transient.step");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrorCode::kDeadlineExceeded);
    EXPECT_EQ(e.stage(), "thermal.transient.step");
  }
}

TEST(CancelToken, ChildObservesParentCancel) {
  const CancelToken parent = CancelToken::cancellable();
  const CancelToken child = parent.child();
  EXPECT_NO_THROW(child.check("stage"));
  parent.request_cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_THROW(child.check("stage"), SimError);
  // Cancelling a child never propagates up to the parent.
  const CancelToken sibling = parent.child();
  EXPECT_TRUE(sibling.cancelled());  // parent flag still set
}

TEST(CancelToken, ChildDeadlineIsIndependentOfParent) {
  const CancelToken parent = CancelToken::cancellable();
  const CancelToken child = parent.child(1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(child.deadline_expired());
  EXPECT_FALSE(parent.deadline_expired());
  EXPECT_NO_THROW(parent.check("stage"));
  EXPECT_THROW(child.check("stage"), SimError);
}

TEST(HealthGuard, RequireFiniteClassifiesNonFiniteFields) {
  const double clean[3] = {1.0, -2.0, 3.0};
  EXPECT_NO_THROW(require_finite("stage", "field", clean, 3));
  const double dirty[3] = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  try {
    require_finite("global.solve", "global solution", dirty, 3);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrorCode::kNonFiniteField);
    EXPECT_EQ(e.stage(), "global.solve");
  }
  const double inf[1] = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(require_finite("stage", "field", inf, 1), SimError);
  EXPECT_NO_THROW(require_finite("stage", "empty field", inf, 0));
}

}  // namespace
}  // namespace ms::core
