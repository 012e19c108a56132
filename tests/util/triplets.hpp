#pragma once
// A COO triplet accumulator and its compression to CSR, for tests that build
// reference and fixture matrices entry by entry. Duplicates are summed, in
// an order the per-row sort leaves unspecified.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "la/sparse.hpp"

namespace ms::testutil {

using la::CsrMatrix;
using la::idx_t;
using la::offset_t;

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

/// Compress triplets, summing duplicates and dropping exact zeros produced
/// by cancellation only if `drop_zeros` is set (kept by default so symbolic
/// structure is stable across value changes).
inline CsrMatrix from_triplets(const TripletList& t, bool drop_zeros = false) {
  const idx_t rows = t.rows();
  const std::size_t nnz_in = t.size();
  const auto& is = t.row_indices();
  const auto& js = t.col_indices();
  const auto& vs = t.values();

  // Count entries per row, then bucket-sort triplets into row order.
  std::vector<offset_t> count(static_cast<std::size_t>(rows) + 1, 0);
  for (std::size_t k = 0; k < nnz_in; ++k) {
    assert(is[k] >= 0 && is[k] < rows && js[k] >= 0 && js[k] < t.cols());
    ++count[static_cast<std::size_t>(is[k]) + 1];
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) count[r + 1] += count[r];

  std::vector<idx_t> cols(nnz_in);
  std::vector<double> vals(nnz_in);
  {
    std::vector<offset_t> next(count.begin(), count.end() - 1);
    for (std::size_t k = 0; k < nnz_in; ++k) {
      const offset_t slot = next[is[k]]++;
      cols[slot] = js[k];
      vals[slot] = vs[k];
    }
  }

  // Sort each row by column and merge duplicates, compacting the merged rows
  // to the front of the bucketed arrays; `count` turns into the row pointer.
  offset_t out = 0;
  offset_t begin = 0;
  std::vector<std::pair<idx_t, double>> row_buf;
  for (idx_t r = 0; r < rows; ++r) {
    const offset_t end = count[static_cast<std::size_t>(r) + 1];
    row_buf.clear();
    for (offset_t k = begin; k < end; ++k) row_buf.emplace_back(cols[k], vals[k]);
    std::sort(row_buf.begin(), row_buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row_buf.size();) {
      const idx_t col = row_buf[k].first;
      double sum = 0.0;
      while (k < row_buf.size() && row_buf[k].first == col) sum += row_buf[k++].second;
      if (drop_zeros && sum == 0.0) continue;
      cols[out] = col;
      vals[out] = sum;
      ++out;
    }
    count[static_cast<std::size_t>(r) + 1] = out;
    begin = end;
  }
  cols.resize(out);
  vals.resize(out);
  return CsrMatrix::from_raw(rows, t.cols(), std::move(count), std::move(cols), std::move(vals));
}

}  // namespace ms::testutil
