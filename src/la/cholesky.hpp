#pragma once
// Sparse Cholesky (L L^T) for SPD systems. Two numeric back ends share one
// symbolic analysis (elimination tree + column counts, CSparse style):
//
//  - supernodal (default): columns with identical structure are factored as
//    dense column panels with register-tiled rank-k updates — the fast path
//    for the 3D FEM matrices every solve in this repository produces.
//  - simplicial: the scalar up-looking column-at-a-time loop, kept as the
//    reference/fallback implementation.
//
// Orderings: approximate minimum degree (default — far less fill than RCM
// on 3D hex meshes), reverse Cuthill-McKee, or natural. The permuted matrix
// is additionally postordered by the elimination tree so supernode columns
// land consecutively (fill-neutral).
//
// This is the workhorse of the one-shot local stage (one factorization,
// n+1 basis solves — batched via solve_multi_with), the global direct path, the
// transient θ-stepper, the package model, and the reference-FEM harness.

#include <cstddef>
#include <vector>

#include "la/ordering.hpp"
#include "la/sparse.hpp"
#include "la/supernodal.hpp"

namespace ms::la {

class SparseCholesky {
 public:
  /// Fill-reducing pre-ordering of the matrix.
  enum class Ordering { kAmd, kRcm, kNatural };
  /// Numeric back end.
  enum class Method { kSupernodal, kSimplicial };

  struct Options {
    Ordering ordering = Ordering::kAmd;
    Method method = Method::kSupernodal;
    /// Column cap per supernodal panel (keeps the dense working set near
    /// the register/cache sweet spot).
    idx_t max_supernode_width = 48;
    /// Relaxed supernode amalgamation: merge adjacent etree child/parent
    /// supernodes with near-identical structure into one wider panel when
    /// the explicit zeros introduced stay within this fraction of the merged
    /// panel's trapezoid (0 disables; 0.1-0.3 is typical). Values are
    /// unchanged — padded entries are exact zeros — but factor_nnz and
    /// memory_bytes count the padding, and fewer/wider panels shift the
    /// numeric phase further into the dense rank-k kernels.
    double relax_supernodes = 0.0;
    /// Run the supernodal numeric phase's subtree pass under OpenMP
    /// (independent elimination-tree subtrees factor concurrently; the
    /// serial top pass consumes their deferred updates in a fixed order).
    /// The schedule is independent of the thread count, so the factor is
    /// bitwise identical with the flag on or off. Ignored by the simplicial
    /// back end.
    bool parallel_numeric = true;
  };

  /// Factor a symmetric positive definite matrix (full symmetric storage).
  /// Throws std::runtime_error if a non-positive pivot is hit.
  explicit SparseCholesky(const CsrMatrix& a);
  SparseCholesky(const CsrMatrix& a, Options options);

  // The factor never changes after construction and every solve keeps its
  // scratch local to the call (or in the caller's `work`), so one factor may
  // be solved from many threads at once through any entry point.

  /// Solve A x = b.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// Same, with caller-provided scratch reused across calls (hot path for
  /// repeated solves). `work` is resized on first use.
  void solve_with(const Vec& b, Vec& x, Vec& work) const;

  /// Multi-RHS panel solve: b and x are column-major n x nrhs blocks (each
  /// right-hand side one contiguous column), `work` is resized to n * nrhs.
  /// The factor is traversed once for the whole panel, so nrhs solves cost
  /// roughly one factor sweep of memory traffic instead of nrhs. Per column,
  /// the arithmetic matches the single-RHS path bitwise.
  void solve_multi_with(const double* b, double* x, idx_t nrhs, Vec& work) const;

  /// Convenience: pack separate right-hand sides into one panel, solve, and
  /// unpack — one solution per input case.
  [[nodiscard]] std::vector<Vec> solve_multi(const std::vector<Vec>& cases) const;

  [[nodiscard]] idx_t order() const { return n_; }

  /// Nonzeros of L, diagonal included (supernodal: the panel trapezoids).
  [[nodiscard]] offset_t factor_nnz() const;

  /// nnz(L) / nnz(tril(A)) — 1.0 means no fill.
  [[nodiscard]] double fill_ratio() const;

  /// Supernode count (0 on the simplicial back end).
  [[nodiscard]] idx_t num_supernodes() const;

  [[nodiscard]] Ordering ordering() const { return options_.ordering; }
  [[nodiscard]] Method method() const { return options_.method; }
  [[nodiscard]] const char* ordering_name() const;
  [[nodiscard]] const char* method_name() const;

  /// Bytes held to produce and apply the factor: the factor itself
  /// (values + patterns + supernode metadata), the permutation, and the
  /// permuted copy of the matrix the numeric phase consumed (freed after
  /// construction but part of the peak footprint the memory ledger must
  /// own).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Export L (permuted ordering, compressed sparse column, diagonal first
  /// per column on the simplicial back end, ascending rows on both) for
  /// tests and diagnostics.
  void extract_factor(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                      std::vector<double>& values) const;

 private:
  void factorize(const CsrMatrix& a); // up-looking numeric phase (simplicial)

  idx_t n_ = 0;
  Options options_;
  Permutation perm_;
  offset_t matrix_lower_nnz_ = 0;       // nnz(tril(A)), for fill_ratio
  std::size_t permuted_matrix_bytes_ = 0;

  // Simplicial back end: L column-major (CSC), diagonal first per column.
  std::vector<idx_t> parent_;  // elimination tree
  std::vector<offset_t> lp_;
  std::vector<idx_t> li_;
  std::vector<double> lx_;

  // Supernodal back end.
  SupernodalFactor snf_;
};

}  // namespace ms::la
