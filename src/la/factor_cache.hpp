#pragma once
// Cross-scenario factorization memoization for the sweep engine.
//
// A sweep over a trace family (duty / period / amplitude variations of one
// layout) re-solves the same operator with different right-hand sides and
// boundary values; the factorization — the dominant cost of every direct
// path — can be built once and shared. FactorCache maps an opaque string key
// (composed by the caller from everything that determines the operator: mesh,
// materials, mask, and the constrained-dof *set* — BC values excluded, see
// DESIGN.md) to the factor of the operator's free block K_ff plus the
// free-by-constrained coupling K_fc, against which every caller reduces its
// right-hand sides under its own boundary values.
//
// It is a util::SingleFlightCache recorded as `la.factor_cache.*`: one build
// per key under contention, so `num_factorizations` stays deterministic. A
// SparseCholesky holds no mutable state, so a shared factor may be solved
// from many threads through any entry point.

#include <memory>
#include <string>

#include "la/cholesky.hpp"
#include "la/sparse.hpp"
#include "util/single_flight_cache.hpp"

namespace ms::la {

/// Factorization detail of one direct solve, filled once from the factor
/// it solved with (zero / empty on iterative paths). The solver stats
/// structs inherit it, so `stats.factor_nnz` reads the same on all of them.
struct FactorStats {
  double factor_seconds = 0.0;  ///< obtaining the factor: the build, or the cache lookup
  offset_t factor_nnz = 0;      ///< nnz(L), diagonal included
  double fill_ratio = 0.0;      ///< nnz(L) / nnz(tril(A))
  idx_t num_supernodes = 0;     ///< panels of the supernodal factor
  std::string ordering;         ///< the factor's order: "nested-dissection" or "amd"
  /// Factorizations this call ran: 1 on a build, 0 on a cache hit (and on
  /// iterative paths) — the batching invariant fatigue runs assert.
  int num_factorizations = 0;
  /// Set when the factorization needed the diagonal shift-retry ladder
  /// (la/shift_retry.hpp): the solution solves A + shift*I, not A.
  bool degraded = false;
  double diagonal_shift = 0.0;
};

/// One cached factorization (fem::fetch_factor builds it).
struct FactorEntry {
  /// The factor of K_ff, the operator's free block.
  std::shared_ptr<const SparseCholesky> factor;
  /// K_fc, the free-by-constrained coupling: a hit reduces each right-hand
  /// side f to f_f − K_fc g under its own boundary values g.
  std::shared_ptr<const CsrMatrix> coupling;
  /// Non-zero when the factor was rescued by the diagonal shift-retry
  /// ladder (see la/shift_retry.hpp): every solve through this entry —
  /// warm hits included — must report its stats as degraded.
  double diagonal_shift = 0.0;
};

class FactorCache : public util::SingleFlightCache<FactorEntry> {
 public:
  using Entry = FactorEntry;
  FactorCache() : SingleFlightCache("la.factor_cache") {}
};

}  // namespace ms::la
