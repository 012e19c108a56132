#include "la/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ms::la {

namespace {

/// The part of from_raw's contract it asserts (sparse.hpp).
[[maybe_unused]] bool is_sorted_csr(idx_t rows, idx_t cols, const std::vector<offset_t>& row_ptr,
                                    const std::vector<idx_t>& col_idx) {
  if (row_ptr.front() != 0) return false;
  for (idx_t r = 0; r < rows; ++r) {
    const offset_t begin = row_ptr[r];
    const offset_t end = row_ptr[static_cast<std::size_t>(r) + 1];
    if (end < begin) return false;
    for (offset_t k = begin; k < end; ++k) {
      if (col_idx[k] < 0 || col_idx[k] >= cols || (k > begin && col_idx[k - 1] >= col_idx[k])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

CsrMatrix CsrMatrix::from_raw(idx_t rows, idx_t cols, std::vector<offset_t> row_ptr,
                              std::vector<idx_t> col_idx, std::vector<double> values) {
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1 || col_idx.size() != values.size() ||
      row_ptr.back() != static_cast<offset_t>(values.size())) {
    throw std::invalid_argument("CsrMatrix::from_raw: inconsistent arrays");
  }
  assert(is_sorted_csr(rows, cols, row_ptr, col_idx));
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

void CsrMatrix::mul(const Vec& x, Vec& y) const {
  assert(static_cast<idx_t>(x.size()) == cols_);
  y.assign(rows_, 0.0);
  mul_add(1.0, x, y);
}

void CsrMatrix::mul_add(double a, const Vec& x, Vec& y) const {
  assert(static_cast<idx_t>(x.size()) == cols_);
  assert(static_cast<idx_t>(y.size()) == rows_);
  for (idx_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const offset_t end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (offset_t k = row_ptr_[r]; k < end; ++k) sum += values_[k] * x[col_idx_[k]];
    y[r] += a * sum;
  }
}

double CsrMatrix::coeff(idx_t i, idx_t j) const {
  const offset_t begin = row_ptr_[i];
  const offset_t end = row_ptr_[static_cast<std::size_t>(i) + 1];
  const auto first = col_idx_.begin() + begin;
  const auto last = col_idx_.begin() + end;
  const auto it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return 0.0;
  return values_[begin + (it - first)];
}

Vec CsrMatrix::diagonal() const {
  Vec d(rows_, 0.0);
  for (idx_t r = 0; r < std::min(rows_, cols_); ++r) d[r] = coeff(r, r);
  return d;
}

double CsrMatrix::symmetry_error() const {
  double m = 0.0;
  for (idx_t r = 0; r < rows_; ++r) {
    const offset_t end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (offset_t k = row_ptr_[r]; k < end; ++k) {
      const idx_t c = col_idx_[k];
      if (c <= r) continue;  // check each unordered pair once
      m = std::max(m, std::fabs(values_[k] - coeff(c, r)));
    }
  }
  return m;
}

CsrMatrix CsrMatrix::submatrix(const std::vector<idx_t>& row_map, idx_t new_rows,
                               const std::vector<idx_t>& col_map, idx_t new_cols) const {
  assert(row_map.size() == static_cast<std::size_t>(rows_));
  assert(col_map.size() == static_cast<std::size_t>(cols_));
  // Invert the row map so output rows appear in new-index order.
  std::vector<idx_t> old_row_of(static_cast<std::size_t>(new_rows), -1);
  for (idx_t r = 0; r < rows_; ++r) {
    if (row_map[r] >= 0) {
      assert(row_map[r] < new_rows);
      old_row_of[row_map[r]] = r;
    }
  }
  CsrMatrix m;
  m.rows_ = new_rows;
  m.cols_ = new_cols;
  m.row_ptr_.assign(static_cast<std::size_t>(new_rows) + 1, 0);
  // Count the kept entries first, so each array is allocated once.
  std::size_t kept = 0;
  for (idx_t nr = 0; nr < new_rows; ++nr) {
    const idx_t r = old_row_of[nr];
    if (r < 0) throw std::invalid_argument("CsrMatrix::submatrix: row map not surjective");
    const offset_t end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (offset_t k = row_ptr_[r]; k < end; ++k) kept += col_map[col_idx_[k]] >= 0 ? 1 : 0;
  }
  m.col_idx_.reserve(kept);
  m.values_.reserve(kept);
  for (idx_t nr = 0; nr < new_rows; ++nr) {
    const idx_t r = old_row_of[nr];
    const offset_t end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (offset_t k = row_ptr_[r]; k < end; ++k) {
      const idx_t nc = col_map[col_idx_[k]];
      if (nc < 0) continue;
      m.col_idx_.push_back(nc);
      m.values_.push_back(values_[k]);
    }
    m.row_ptr_[static_cast<std::size_t>(nr) + 1] = static_cast<offset_t>(m.col_idx_.size());
  }
  return m;
}

std::size_t CsrMatrix::memory_bytes() const {
  return values_.size() * sizeof(double) + col_idx_.size() * sizeof(idx_t) +
         row_ptr_.size() * sizeof(offset_t);
}

}  // namespace ms::la
