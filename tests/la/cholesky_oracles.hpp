#pragma once
// Reference implementations the direct-solver tests compare against. None
// of them runs in a solve path:
//
//  - symmetric permutation: P A P^T as an explicit value copy. Factoring
//    the copy in natural order is the reference for SparseCholesky, which
//    reads A through the permutation instead (the cross-path bitwise lock).
//  - simplicial Cholesky: the scalar up-looking column-at-a-time
//    factorization (CSparse style) of P A P^T, and its triangular solve.
//    Under the permutation SparseCholesky reports, its factor must match
//    the supernodal factor entry for entry.
//  - reverse Cuthill-McKee: the bandwidth ordering AMD replaced; its fill is
//    the bar AMD must clear on 3D grids.

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "la/errors.hpp"
#include "la/ordering.hpp"
#include "la/sparse.hpp"
#include "la/supernodal.hpp"
#include "util/triplets.hpp"

namespace ms::la::oracle {

/// B = P A P^T for a symmetric permutation (perm[new] = old).
inline CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& p) {
  testutil::TripletList t(a.rows(), a.cols());
  t.reserve(static_cast<std::size_t>(a.nnz()));
  for (idx_t r = 0; r < a.rows(); ++r) {
    const idx_t nr = p.inv_perm[r];
    const offset_t end = a.row_ptr()[static_cast<std::size_t>(r) + 1];
    for (offset_t k = a.row_ptr()[r]; k < end; ++k) {
      t.add(nr, p.inv_perm[a.col_idx()[k]], a.values()[k]);
    }
  }
  return testutil::from_triplets(t);
}

/// L of P A P^T in compressed sparse column form, diagonal first and rows
/// ascending per column (the SparseCholesky::extract_factor layout).
struct SimplicialFactor {
  Permutation perm;
  std::vector<offset_t> col_ptr;
  std::vector<idx_t> row_idx;
  std::vector<double> values;

  [[nodiscard]] idx_t order() const { return perm.size(); }
  [[nodiscard]] offset_t nnz() const { return static_cast<offset_t>(values.size()); }
};

/// Up-looking factorization of P A P^T (perm[new] = old): row k of L is a
/// sparse triangular solve over the etree reach of row k of the permuted
/// matrix. Throws NotPositiveDefiniteError on a non-positive pivot.
inline SimplicialFactor simplicial_cholesky(const CsrMatrix& a, const Permutation& p) {
  const CsrMatrix pa = permute_symmetric(a, p);
  const idx_t n = pa.rows();
  // Pattern of the sorted copy, so each row's reach is visited in the
  // copy's column order.
  const LowerPattern pattern = lower_pattern(pa, Permutation::identity(n));
  const std::vector<idx_t> parent = elimination_tree(pattern);
  const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
  SimplicialFactor f;
  f.perm = p;
  f.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (idx_t j = 0; j < n; ++j) f.col_ptr[static_cast<std::size_t>(j) + 1] = f.col_ptr[j] + counts[j];
  f.row_idx.assign(static_cast<std::size_t>(f.col_ptr[n]), 0);
  f.values.assign(static_cast<std::size_t>(f.col_ptr[n]), 0.0);

  std::vector<offset_t> next(f.col_ptr.begin(), f.col_ptr.end() - 1);  // free slot per column
  std::vector<idx_t> s(n), mark(n, -1);
  Vec x(n, 0.0);
  for (idx_t k = 0; k < n; ++k) {
    // Scatter the lower part of row k into x.
    const idx_t top = ereach(pattern, k, parent, s, mark, k);
    double d = 0.0;
    for (offset_t q = pa.row_ptr()[k]; q < pa.row_ptr()[static_cast<std::size_t>(k) + 1]; ++q) {
      const idx_t i = pa.col_idx()[q];
      if (i < k) {
        x[i] = pa.values()[q];
      } else if (i == k) {
        d = pa.values()[q];
      }
    }
    // Triangular solve over the reach, in topological order.
    for (idx_t t = top; t < n; ++t) {
      const idx_t j = s[t];
      const double lkj = x[j] / f.values[f.col_ptr[j]];  // divide by L(j,j)
      x[j] = 0.0;
      for (offset_t q = f.col_ptr[j] + 1; q < next[j]; ++q) x[f.row_idx[q]] -= f.values[q] * lkj;
      d -= lkj * lkj;
      f.row_idx[next[j]] = k;
      f.values[next[j]] = lkj;
      ++next[j];
    }
    if (d <= 0.0) throw NotPositiveDefiniteError();
    f.row_idx[next[k]] = k;
    f.values[next[k]] = std::sqrt(d);
    ++next[k];
  }
  return f;
}

/// Solve A x = b with a simplicial factor: permute, L y = P b, L^T z = y,
/// unpermute.
inline Vec simplicial_solve(const SimplicialFactor& f, const Vec& b) {
  const idx_t n = f.order();
  Vec y = permute_vector(b, f.perm);
  for (idx_t j = 0; j < n; ++j) {
    y[j] /= f.values[f.col_ptr[j]];
    for (offset_t q = f.col_ptr[j] + 1; q < f.col_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
      y[f.row_idx[q]] -= f.values[q] * y[j];
    }
  }
  for (idx_t j = n - 1; j >= 0; --j) {
    for (offset_t q = f.col_ptr[j] + 1; q < f.col_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
      y[j] -= f.values[q] * y[f.row_idx[q]];
    }
    y[j] /= f.values[f.col_ptr[j]];
  }
  return unpermute_vector(y, f.perm);
}

/// BFS from `start`, returning the node visited last (approximates a
/// peripheral node after a couple of sweeps).
inline idx_t bfs_far_node(const CsrMatrix& a, idx_t start, std::vector<int>& mark, int stamp) {
  std::queue<idx_t> q;
  q.push(start);
  mark[start] = stamp;
  idx_t last = start;
  while (!q.empty()) {
    const idx_t u = q.front();
    q.pop();
    last = u;
    for (offset_t k = a.row_ptr()[u]; k < a.row_ptr()[static_cast<std::size_t>(u) + 1]; ++k) {
      const idx_t v = a.col_idx()[k];
      if (mark[v] != stamp) {
        mark[v] = stamp;
        q.push(v);
      }
    }
  }
  return last;
}

/// Reverse Cuthill-McKee ordering of a structurally symmetric matrix.
/// Components are seeded from pseudo-peripheral nodes (two BFS sweeps);
/// neighbours are visited in increasing-degree order.
inline Permutation reverse_cuthill_mckee(const CsrMatrix& a) {
  const idx_t n = a.rows();
  std::vector<idx_t> degree(n);
  for (idx_t i = 0; i < n; ++i) {
    degree[i] = static_cast<idx_t>(a.row_ptr()[static_cast<std::size_t>(i) + 1] - a.row_ptr()[i]);
  }
  std::vector<idx_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<int> mark(n, -1);
  int stamp = 0;
  for (idx_t seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    idx_t start = bfs_far_node(a, seed, mark, stamp++);
    start = bfs_far_node(a, start, mark, stamp++);
    std::queue<idx_t> q;
    q.push(start);
    visited[start] = true;
    std::vector<idx_t> nbrs;
    while (!q.empty()) {
      const idx_t u = q.front();
      q.pop();
      order.push_back(u);
      nbrs.clear();
      for (offset_t k = a.row_ptr()[u]; k < a.row_ptr()[static_cast<std::size_t>(u) + 1]; ++k) {
        const idx_t v = a.col_idx()[k];
        if (!visited[v]) {
          visited[v] = true;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](idx_t x, idx_t y) { return degree[x] < degree[y]; });
      for (idx_t v : nbrs) q.push(v);
    }
  }
  std::reverse(order.begin(), order.end());
  Permutation p;
  p.perm = std::move(order);
  p.inv_perm.assign(n, 0);
  for (idx_t i = 0; i < n; ++i) p.inv_perm[p.perm[i]] = i;
  return p;
}

/// Bandwidth max |i - j| over stored entries.
inline idx_t bandwidth(const CsrMatrix& a) {
  idx_t bw = 0;
  for (idx_t r = 0; r < a.rows(); ++r) {
    for (offset_t k = a.row_ptr()[r]; k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      bw = std::max(bw, static_cast<idx_t>(std::abs(static_cast<long>(a.col_idx()[k]) - r)));
    }
  }
  return bw;
}

}  // namespace ms::la::oracle
