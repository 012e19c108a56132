#pragma once
// Cross-scenario factorization memoization for the sweep engine.
//
// A sweep over a trace family (duty / period / amplitude variations of one
// layout) re-solves the same lifted operator with different right-hand
// sides; the factorization — the dominant cost of every direct path — can
// be built once and shared. FactorCache maps an opaque string key (composed
// by the caller from everything that determines the lifted operator: mesh,
// materials, mask, factor options, and the constrained-dof *set* — BC
// values excluded, see DESIGN.md) to a factorized operator plus, when the
// caller needs right-hand-side lifting against the original matrix, the
// unlifted operator it was built from.
//
// get_or_create is single-flight: when several sweep workers race on one
// key, exactly one runs the builder while the rest wait on the slot, so
// `num_factorizations` stays deterministic (one per distinct key) no matter
// the thread schedule. Entries are never evicted; the owning engine's
// lifetime bounds the cache. A SparseCholesky holds no mutable state, so a
// shared factor may be solved from many threads through any entry point.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "la/cholesky.hpp"
#include "la/sparse.hpp"

namespace ms::la {

/// Factorization detail of one direct solve, filled once from the factor
/// it solved with (zero / empty on iterative paths). The solver stats
/// structs inherit it, so `stats.factor_nnz` reads the same on all of them.
struct FactorStats {
  double factor_seconds = 0.0;  ///< obtaining the factor: the build, or the cache lookup
  offset_t factor_nnz = 0;      ///< nnz(L), diagonal included
  double fill_ratio = 0.0;      ///< nnz(L) / nnz(tril(A))
  idx_t num_supernodes = 0;     ///< 0 on the simplicial back end
  std::string ordering;         ///< "amd" / "rcm" / "natural"
  /// Factorizations this call ran: 1 on a build, 0 on a cache hit (and on
  /// iterative paths) — the batching invariant fatigue runs assert.
  int num_factorizations = 0;
  /// Set when the factorization needed the diagonal shift-retry ladder
  /// (la/shift_retry.hpp): the solution solves A + shift*I, not A.
  bool degraded = false;
  double diagonal_shift = 0.0;
};

class FactorCache {
 public:
  struct Entry {
    /// The operator *before* Dirichlet lifting, kept when the caller lifts
    /// right-hand sides separately (null when the path never needs it, e.g.
    /// the transient stepper which re-assembles A for the correction term).
    std::shared_ptr<const CsrMatrix> matrix;
    std::shared_ptr<const SparseCholesky> factor;
    /// Non-zero when the factor was rescued by the diagonal shift-retry
    /// ladder (see la/shift_retry.hpp): every solve through this entry —
    /// warm hits included — must report its stats as degraded.
    double diagonal_shift = 0.0;
  };

  /// Return the entry under `key`, running `build` if absent. Concurrent
  /// callers of one absent key block until the single in-flight build
  /// finishes. `built` (optional) reports whether *this* call ran the
  /// builder — the caller's num_factorizations contribution. A throwing
  /// builder clears the slot (the next caller retries) and rethrows.
  Entry get_or_create(const std::string& key, const std::function<Entry()>& build,
                      bool* built = nullptr);

  /// True when `key` is resident and ready (in-flight builds don't count).
  /// Lets callers skip work that only a cache miss needs — e.g. the global
  /// stage skips matrix assembly when the factor is already resident.
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Drop every entry (callers holding shared_ptrs keep theirs alive).
  /// Not safe to call concurrently with get_or_create.
  void clear();

 private:
  struct Slot {
    bool ready = false;  // false while the owning builder runs
    Entry entry;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::string, Slot> slots_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ms::la
