#pragma once
// Stage-boundary numeric health guards. require_finite() runs one O(n)
// la::all_finite sweep over a field the pipeline is about to hand to the
// next stage (global solve output, ΔT fields, channel histories, damage
// maps) and converts a NaN/Inf escape into a classified SimError instead of
// letting it flow silently into lifetime maps. Guards sit OFF the hot inner
// loops — once per field per query — and are always on.

#include <cstddef>

#include "core/sim_error.hpp"
#include "la/vec.hpp"
#include "obs/metrics.hpp"

namespace ms::core {

/// Throw SimError(kNonFiniteField) naming `stage`/`what` if any of x[0..n)
/// is NaN/Inf. No-op when the field is empty.
inline void require_finite(const char* stage, const char* what, const double* x, std::size_t n) {
  if (n == 0 || la::all_finite(x, n)) return;
  obs::MetricRegistry::global().counter("robustness.nonfinite_detected").add(1);
  throw SimError(SimErrorCode::kNonFiniteField, stage,
                 std::string("non-finite values in ") + what);
}

inline void require_finite(const char* stage, const char* what, const la::Vec& x) {
  require_finite(stage, what, x.data(), x.size());
}

}  // namespace ms::core
