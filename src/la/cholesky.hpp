#pragma once
// Sparse Cholesky (L L^T) for SPD systems, in the one configuration every
// solve path runs:
//
//  - approximate minimum degree ordering (far less fill than a bandwidth
//    ordering on 3D hex meshes), additionally postordered by its
//    elimination tree so supernode columns land consecutively
//    (fill-neutral);
//  - a symbolic phase over the values-free strictly-lower pattern of
//    P A P^T (no permuted copy of A's values is ever built);
//  - a supernodal numeric phase that scatters A's values straight into the
//    panels through the permutation: columns with identical structure are
//    factored as dense column panels of at most 48 columns with
//    register-tiled rank-k updates, independent elimination-tree subtrees
//    in parallel under OpenMP (bitwise identical to the serial order).
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
  /// Column cap per supernodal panel (keeps the dense working set near the
  /// register/cache sweet spot).
  static constexpr idx_t kMaxSupernodeWidth = 48;

  /// No fields: the factorization has one configuration. The type stays
  /// only because the benchmark of record (perfbench/src/replay.cpp) passes
  /// rom::GlobalSolveOptions' `factor` to the two-argument constructor.
  struct Options {};

  /// Factor a symmetric positive definite matrix (full symmetric storage).
  /// Throws std::runtime_error if a non-positive pivot is hit.
  explicit SparseCholesky(const CsrMatrix& a, Options options = {});

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

  /// Nonzeros of L, diagonal included (the panel trapezoids).
  [[nodiscard]] offset_t factor_nnz() const { return snf_.factor_nnz(); }

  /// nnz(L) / nnz(tril(A)) — 1.0 means no fill.
  [[nodiscard]] double fill_ratio() const;

  [[nodiscard]] idx_t num_supernodes() const { return snf_.num_supernodes; }

  /// Name of the fill-reducing ordering, for solver stats.
  [[nodiscard]] static const char* ordering_name() { return "amd"; }

  /// The symmetric permutation L factors (AMD composed with the etree
  /// postorder): L L^T = P A P^T with perm[new] = old.
  [[nodiscard]] const Permutation& permutation() const { return perm_; }

  /// Bytes held to produce and apply the factor: the factor itself
  /// (values + row patterns + supernode metadata) and the two permutation
  /// arrays. Construction makes no copy of the matrix: the symbolic phase's
  /// lower pattern (about half of A's column indices) is released before the
  /// factor values are allocated, so it never adds to the peak.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Export L (permuted ordering, compressed sparse column, diagonal first
  /// and rows ascending per column) for tests and diagnostics.
  void extract_factor(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                      std::vector<double>& values) const;

 private:
  idx_t n_ = 0;
  Permutation perm_;
  offset_t matrix_lower_nnz_ = 0;  // nnz(tril(A)), for fill_ratio
  SupernodalFactor snf_;
};

}  // namespace ms::la
