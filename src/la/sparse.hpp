#pragma once
// Sparse matrices: a COO triplet accumulator for FEM assembly and an
// immutable CSR matrix for solves. Duplicate triplets are summed during
// compression, which is exactly the FEM assembly semantic.

#include <cstddef>
#include <vector>

#include "la/vec.hpp"

namespace ms::la {

/// Coordinate-format accumulator. add() is O(1); build CSR when done.
class TripletList {
 public:
  TripletList() = default;
  TripletList(idx_t rows, idx_t cols) : rows_(rows), cols_(cols) {}

  void reserve(std::size_t n) {
    is_.reserve(n);
    js_.reserve(n);
    vs_.reserve(n);
  }

  /// Append a contribution; duplicates are summed at compression time.
  void add(idx_t i, idx_t j, double v) {
    is_.push_back(i);
    js_.push_back(j);
    vs_.push_back(v);
  }

  [[nodiscard]] std::size_t size() const { return vs_.size(); }
  [[nodiscard]] idx_t rows() const { return rows_; }
  [[nodiscard]] idx_t cols() const { return cols_; }

  [[nodiscard]] const std::vector<idx_t>& row_indices() const { return is_; }
  [[nodiscard]] const std::vector<idx_t>& col_indices() const { return js_; }
  [[nodiscard]] const std::vector<double>& values() const { return vs_; }

 private:
  idx_t rows_ = 0;
  idx_t cols_ = 0;
  std::vector<idx_t> is_, js_;
  std::vector<double> vs_;
};

/// Compressed sparse row matrix (sorted column indices within each row).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compress triplets, summing duplicates and dropping exact zeros produced
  /// by cancellation only if `drop_zeros` is set (kept by default so symbolic
  /// structure is stable across value changes).
  static CsrMatrix from_triplets(const TripletList& t, bool drop_zeros = false);

  /// Adopt raw CSR arrays. Throws std::invalid_argument if their sizes
  /// disagree; asserts the rest of the contract: row pointers start at 0
  /// and never decrease, and each row's columns ascend strictly in [0, cols).
  static CsrMatrix from_raw(idx_t rows, idx_t cols, std::vector<offset_t> row_ptr,
                            std::vector<idx_t> col_idx, std::vector<double> values);

  [[nodiscard]] idx_t rows() const { return rows_; }
  [[nodiscard]] idx_t cols() const { return cols_; }
  [[nodiscard]] offset_t nnz() const { return static_cast<offset_t>(values_.size()); }

  [[nodiscard]] const std::vector<offset_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<idx_t>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// y = A x.
  void mul(const Vec& x, Vec& y) const;

  /// y += a * (A x).
  void mul_add(double a, const Vec& x, Vec& y) const;

  /// Entry lookup (binary search within the row); 0 if not stored.
  [[nodiscard]] double coeff(idx_t i, idx_t j) const;

  /// Diagonal entries (0 where absent).
  [[nodiscard]] Vec diagonal() const;

  /// Max |A(i,j) - A(j,i)| over stored entries (structure must be symmetric
  /// for an exact answer; missing partners count as zeros).
  [[nodiscard]] double symmetry_error() const;

  /// Submatrix A(rows_keep, cols_keep) where the keep arrays map old->new
  /// index or -1 to drop. new_rows/new_cols give the submatrix shape.
  [[nodiscard]] CsrMatrix submatrix(const std::vector<idx_t>& row_map, idx_t new_rows,
                                    const std::vector<idx_t>& col_map, idx_t new_cols) const;

  /// Resident bytes (values + indices + row pointers), for the memory ledger.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  idx_t rows_ = 0;
  idx_t cols_ = 0;
  std::vector<offset_t> row_ptr_;
  std::vector<idx_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace ms::la
