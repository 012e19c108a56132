#pragma once
// SPD failure recovery for SparseCholesky. When the numeric phase hits a
// non-positive pivot (ill-conditioned stiffness, bad material inputs), retry
// with an escalating diagonal shift A + sigma*I:
//
//   sigma_0 = 1e-12 * ||diag(A)||_inf
//   sigma_{k+1} = 2 * sigma_k                    (up to 8 shifted tries)
//
// A shifted factorization is a usable preconditioner-quality solve, not the
// exact operator, so the result is flagged degraded() and the shift is
// recorded for GlobalSolveStats / ScenarioResult reporting. If every
// attempt fails, the last NotPositiveDefiniteError propagates.

#include <memory>

#include "la/cholesky.hpp"
#include "la/sparse.hpp"

namespace ms::la {

struct ShiftRetryResult {
  std::shared_ptr<SparseCholesky> factor;
  double shift = 0.0;  ///< final diagonal shift (0 = clean factorization)
  int attempts = 1;    ///< total factorization attempts, clean one included
  [[nodiscard]] bool degraded() const { return shift != 0.0; }
};

/// Factor `a` (SPD expected), retrying with escalating diagonal shifts on
/// pivot breakdown. Every attempt factors under `order`, a mesh operator's
/// grid order, or under AMD when it is empty. `stage` names the call site
/// for fault-injection probes and metrics. Throws NotPositiveDefiniteError
/// if all attempts fail.
ShiftRetryResult factor_with_shift_retry(const CsrMatrix& a, const char* stage,
                                         const Permutation& order = {});

}  // namespace ms::la
