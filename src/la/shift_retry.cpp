#include "la/shift_retry.hpp"

#include <algorithm>
#include <utility>

#include "la/errors.hpp"
#include "obs/metrics.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"

namespace ms::la {
namespace {

constexpr double kInitialShiftScale = 1e-12;  // sigma_0 = scale * ||diag||_inf
constexpr int kMaxShiftedAttempts = 8;        // after the clean attempt

/// Overwrite the stored diagonal of `m` with base_diag[i] + shift. Returns
/// false if some row stores no diagonal entry (can't shift in place).
bool set_shifted_diagonal(CsrMatrix& m, const Vec& base_diag, double shift) {
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  auto& values = m.values();
  for (idx_t i = 0; i < m.rows(); ++i) {
    bool found = false;
    for (offset_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (col_idx[k] == i) {
        values[k] = base_diag[static_cast<std::size_t>(i)] + shift;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

ShiftRetryResult factor_with_shift_retry(const CsrMatrix& a, const char* stage) {
  ShiftRetryResult result;
  // The `spd` fault action simulates a pivot breakdown of the clean attempt,
  // driving the retry ladder without needing a genuinely indefinite operator.
  const bool inject_breakdown =
      util::FaultInjector::enabled() &&
      util::FaultInjector::global().consume(stage) == util::FaultAction::kSpd;
  if (!inject_breakdown) {
    try {
      result.factor = std::make_shared<SparseCholesky>(a);
      return result;
    } catch (const NotPositiveDefiniteError&) {
      // Fall through to the shifted ladder.
    }
  }

  const Vec base_diag = a.diagonal();
  double diag_norm = norm_inf(base_diag);
  double shift = kInitialShiftScale * (diag_norm > 0.0 ? diag_norm : 1.0);
  CsrMatrix shifted = a;  // one copy, diagonal rewritten per attempt

  auto& retries = obs::MetricRegistry::global().counter("robustness.spd_shift_retries");
  for (int attempt = 0; attempt < kMaxShiftedAttempts; ++attempt, shift *= 2.0) {
    ++result.attempts;
    retries.add(1);
    if (!set_shifted_diagonal(shifted, base_diag, shift)) {
      throw NotPositiveDefiniteError(std::string(stage) +
                                     ": matrix stores no diagonal entry, cannot shift-retry");
    }
    try {
      result.factor = std::make_shared<SparseCholesky>(shifted);
      result.shift = shift;
      MS_LOG_WARN("%s: factored with diagonal shift %.3e after %d attempts (degraded)", stage,
                  shift, result.attempts);
      return result;
    } catch (const NotPositiveDefiniteError&) {
      if (attempt + 1 == kMaxShiftedAttempts) {
        throw NotPositiveDefiniteError(std::string(stage) + ": still indefinite after " +
                                       std::to_string(result.attempts) +
                                       " attempts, final shift " + std::to_string(shift));
      }
    }
  }
  // Unreachable: the loop either returns or rethrows on the last attempt.
  throw NotPositiveDefiniteError(stage);
}

}  // namespace ms::la
