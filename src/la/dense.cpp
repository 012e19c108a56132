#include "la/dense.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ms::la {

DenseMatrix::DenseMatrix(idx_t rows, idx_t cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, fill) {}

void DenseMatrix::mul(const Vec& x, Vec& y) const {
  assert(static_cast<idx_t>(x.size()) == cols_);
  y.assign(rows_, 0.0);
  for (idx_t i = 0; i < rows_; ++i) {
    const double* row = &data_[static_cast<std::size_t>(i) * cols_];
    double sum = 0.0;
    for (idx_t j = 0; j < cols_; ++j) sum += row[j] * x[j];
    y[i] = sum;
  }
}

void DenseMatrix::mul_transpose(const Vec& x, Vec& y) const {
  assert(static_cast<idx_t>(x.size()) == rows_);
  y.assign(cols_, 0.0);
  for (idx_t i = 0; i < rows_; ++i) {
    const double* row = &data_[static_cast<std::size_t>(i) * cols_];
    const double xi = x[i];
    for (idx_t j = 0; j < cols_; ++j) y[j] += row[j] * xi;
  }
}

DenseMatrix DenseMatrix::matmul(const DenseMatrix& other) const {
  assert(cols_ == other.rows_);
  DenseMatrix c(rows_, other.cols_);
  for (idx_t i = 0; i < rows_; ++i) {
    for (idx_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (idx_t j = 0; j < other.cols_; ++j) c(i, j) += aik * other(k, j);
    }
  }
  return c;
}

DenseMatrix DenseMatrix::transpose_matmul(const DenseMatrix& other) const {
  assert(rows_ == other.rows_);
  DenseMatrix c(cols_, other.cols_);
  for (idx_t k = 0; k < rows_; ++k) {
    for (idx_t i = 0; i < cols_; ++i) {
      const double aki = (*this)(k, i);
      if (aki == 0.0) continue;
      for (idx_t j = 0; j < other.cols_; ++j) c(i, j) += aki * other(k, j);
    }
  }
  return c;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (idx_t i = 0; i < rows_; ++i) {
    for (idx_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

double DenseMatrix::frobenius_diff(const DenseMatrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double sum = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - other.data_[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double DenseMatrix::symmetry_error() const {
  assert(rows_ == cols_);
  double m = 0.0;
  for (idx_t i = 0; i < rows_; ++i) {
    for (idx_t j = i + 1; j < cols_; ++j) m = std::max(m, std::fabs((*this)(i, j) - (*this)(j, i)));
  }
  return m;
}

DenseMatrix DenseMatrix::identity(idx_t n) {
  DenseMatrix m(n, n);
  for (idx_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

namespace {

/// NR (1 or 2) consecutive matrix rows, starting at a, times the panel:
/// 4-column tiles, so each row value loaded feeds 4 * NR independent
/// accumulator chains, then the remaining columns one at a time.
template <int NR>
void rows_tile(const double* a, idx_t nk, const double* cols, idx_t num_cols, double* out) {
  idx_t t = 0;
  for (; t + 4 <= num_cols; t += 4) {
    const double* k0 = cols + static_cast<std::size_t>(t) * nk;
    double acc[NR][4] = {};
    for (idx_t k = 0; k < nk; ++k) {
      for (int r = 0; r < NR; ++r) {
        const double v = a[static_cast<std::size_t>(r) * nk + k];
        for (int c = 0; c < 4; ++c) acc[r][c] += v * k0[static_cast<std::size_t>(c) * nk + k];
      }
    }
    for (int r = 0; r < NR; ++r) {
      for (int c = 0; c < 4; ++c) out[static_cast<std::size_t>(r) * num_cols + t + c] = acc[r][c];
    }
  }
  for (; t < num_cols; ++t) {
    const double* kc = cols + static_cast<std::size_t>(t) * nk;
    double acc[NR] = {};
    for (idx_t k = 0; k < nk; ++k) {
      for (int r = 0; r < NR; ++r) acc[r] += a[static_cast<std::size_t>(r) * nk + k] * kc[k];
    }
    for (int r = 0; r < NR; ++r) out[static_cast<std::size_t>(r) * num_cols + t] = acc[r];
  }
}

}  // namespace

void rows_times_cols(const DenseMatrix& m, idx_t row0, int nr, const double* cols,
                     idx_t num_cols, double* out) {
  assert(row0 >= 0 && row0 + nr <= m.rows());
  const idx_t nk = m.cols();
  const double* a = m.data().data() + static_cast<std::size_t>(row0) * nk;
  int ri = 0;
  for (; ri + 2 <= nr; ri += 2) {
    rows_tile<2>(a + static_cast<std::size_t>(ri) * nk, nk, cols, num_cols,
                 out + static_cast<std::size_t>(ri) * num_cols);
  }
  if (ri < nr) {
    rows_tile<1>(a + static_cast<std::size_t>(ri) * nk, nk, cols, num_cols,
                 out + static_cast<std::size_t>(ri) * num_cols);
  }
}

DenseLu::DenseLu(const DenseMatrix& a) : lu_(a), perm_(a.rows()) {
  if (a.rows() != a.cols()) throw std::invalid_argument("DenseLu: matrix must be square");
  const idx_t n = lu_.rows();
  for (idx_t i = 0; i < n; ++i) perm_[i] = i;

  for (idx_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below row k.
    idx_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (idx_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu_(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best == 0.0) throw std::runtime_error("DenseLu: singular matrix");
    if (pivot != k) {
      for (idx_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(pivot, j));
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (idx_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) * inv_pivot;
      lu_(i, k) = factor;
      if (factor == 0.0) continue;
      for (idx_t j = k + 1; j < n; ++j) lu_(i, j) -= factor * lu_(k, j);
    }
  }
}

Vec DenseLu::solve(const Vec& b) const {
  const idx_t n = lu_.rows();
  assert(static_cast<idx_t>(b.size()) == n);
  Vec x(n);
  for (idx_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution with unit lower triangle.
  for (idx_t i = 1; i < n; ++i) {
    double sum = x[i];
    for (idx_t j = 0; j < i; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum;
  }
  // Backward substitution.
  for (idx_t i = n - 1; i >= 0; --i) {
    double sum = x[i];
    for (idx_t j = i + 1; j < n; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum / lu_(i, i);
  }
  return x;
}

DenseMatrix DenseLu::solve(const DenseMatrix& b) const {
  const idx_t n = lu_.rows();
  assert(b.rows() == n);
  DenseMatrix x(n, b.cols());
  Vec col(n);
  for (idx_t j = 0; j < b.cols(); ++j) {
    for (idx_t i = 0; i < n; ++i) col[i] = b(i, j);
    const Vec sol = solve(col);
    for (idx_t i = 0; i < n; ++i) x(i, j) = sol[i];
  }
  return x;
}

double DenseLu::determinant() const {
  double det = perm_sign_;
  for (idx_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

DenseCholesky::DenseCholesky(const DenseMatrix& a) : l_(a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("DenseCholesky: matrix must be square");
  const idx_t n = l_.rows();
  for (idx_t j = 0; j < n; ++j) {
    double diag = l_(j, j);
    for (idx_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (diag <= 0.0) throw std::runtime_error("DenseCholesky: matrix not positive definite");
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (idx_t i = j + 1; i < n; ++i) {
      double sum = l_(i, j);
      for (idx_t k = 0; k < j; ++k) sum -= l_(i, k) * l_(j, k);
      l_(i, j) = sum / ljj;
    }
    for (idx_t i = 0; i < j; ++i) l_(i, j) = 0.0;  // keep strictly lower form
  }
}

Vec DenseCholesky::solve(const Vec& b) const {
  const idx_t n = l_.rows();
  assert(static_cast<idx_t>(b.size()) == n);
  Vec x = b;
  for (idx_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (idx_t j = 0; j < i; ++j) sum -= l_(i, j) * x[j];
    x[i] = sum / l_(i, i);
  }
  for (idx_t i = n - 1; i >= 0; --i) {
    double sum = x[i];
    for (idx_t j = i + 1; j < n; ++j) sum -= l_(j, i) * x[j];
    x[i] = sum / l_(i, i);
  }
  return x;
}

}  // namespace ms::la
