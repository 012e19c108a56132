#include "core/cancel.hpp"

#include "obs/metrics.hpp"

namespace ms::core {

void CancelToken::check_slow(const char* stage) const {
  if (cancelled()) {
    obs::count("robustness.cancelled");
    throw SimError(SimErrorCode::kCancelled, stage, "query cancelled");
  }
  if (deadline_expired()) {
    obs::count("robustness.deadline_exceeded");
    throw SimError(SimErrorCode::kDeadlineExceeded, stage, "query deadline exceeded");
  }
}

}  // namespace ms::core
