#pragma once
// Dense row-major matrix with the factorizations the ROM layer needs:
// LU with partial pivoting (general square solves) and Cholesky (SPD element
// matrices). Sizes here are small (element matrices, reduced models), so
// clarity wins over blocking — except in rows_times_cols, the register-tiled
// product that field reconstruction and channel extraction share.

#include <cstddef>
#include <vector>

#include "la/vec.hpp"

namespace ms::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(idx_t rows, idx_t cols, double fill = 0.0);

  [[nodiscard]] idx_t rows() const { return rows_; }
  [[nodiscard]] idx_t cols() const { return cols_; }

  double& operator()(idx_t i, idx_t j) { return data_[static_cast<std::size_t>(i) * cols_ + j]; }
  double operator()(idx_t i, idx_t j) const { return data_[static_cast<std::size_t>(i) * cols_ + j]; }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// y = A * x.
  void mul(const Vec& x, Vec& y) const;

  /// y = A^T * x.
  void mul_transpose(const Vec& x, Vec& y) const;

  /// C = A * B.
  [[nodiscard]] DenseMatrix matmul(const DenseMatrix& other) const;

  /// C = A^T * B.
  [[nodiscard]] DenseMatrix transpose_matmul(const DenseMatrix& other) const;

  [[nodiscard]] DenseMatrix transposed() const;

  /// Frobenius norm of (A - B).
  [[nodiscard]] double frobenius_diff(const DenseMatrix& other) const;

  /// Max |A(i,j) - A(j,i)| (symmetry check; square only).
  [[nodiscard]] double symmetry_error() const;

  /// Identity matrix of order n.
  static DenseMatrix identity(idx_t n);

 private:
  idx_t rows_ = 0;
  idx_t cols_ = 0;
  std::vector<double> data_;
};

/// out[ri * num_cols + j] = sum_k m(row0 + ri, k) * cols[j * m.cols() + k]
/// for ri < nr, j < num_cols: rows [row0, row0 + nr) of m times a
/// column-major panel of num_cols columns, each m.cols() long. Every output
/// entry is one k-ascending accumulator that starts from zero — the order
/// of DenseMatrix::mul's per-row sum — so the product is bitwise the same
/// as num_cols separate GEMVs, whatever the tiling.
void rows_times_cols(const DenseMatrix& m, idx_t row0, int nr, const double* cols,
                     idx_t num_cols, double* out);

/// LU factorization with partial pivoting of a square matrix.
class DenseLu {
 public:
  /// Factors a copy of `a`; throws std::runtime_error on exact singularity.
  explicit DenseLu(const DenseMatrix& a);

  /// Solve A x = b; b.size() must equal the order.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// Solve for each column of B, returning X with the same shape.
  [[nodiscard]] DenseMatrix solve(const DenseMatrix& b) const;

  /// Determinant from the factorization (sign included).
  [[nodiscard]] double determinant() const;

 private:
  DenseMatrix lu_;
  std::vector<idx_t> perm_;
  int perm_sign_ = 1;
};

/// Cholesky (L L^T) factorization of an SPD matrix.
class DenseCholesky {
 public:
  /// Factors a copy of `a`; throws std::runtime_error if not positive definite.
  explicit DenseCholesky(const DenseMatrix& a);

  [[nodiscard]] Vec solve(const Vec& b) const;

 private:
  DenseMatrix l_;
};

}  // namespace ms::la
