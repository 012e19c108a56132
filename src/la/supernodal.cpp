#include "la/supernodal.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>

#include "la/errors.hpp"
#include "la/team.hpp"
#include "util/fault_injector.hpp"

namespace ms::la {

LowerPattern lower_pattern(const CsrMatrix& a, const Permutation& p) {
  assert(a.rows() == a.cols() && p.size() == a.rows());
  const idx_t n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  LowerPattern pattern;
  pattern.n = n;
  pattern.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (idx_t k = 0; k < n; ++k) {
    const idx_t r = p.perm[k];
    offset_t count = 0;
    for (offset_t q = rp[r]; q < rp[static_cast<std::size_t>(r) + 1]; ++q) {
      if (p.inv_perm[ci[q]] < k) ++count;
    }
    pattern.row_ptr[static_cast<std::size_t>(k) + 1] = pattern.row_ptr[k] + count;
  }
  pattern.col_idx.resize(static_cast<std::size_t>(pattern.row_ptr[n]));
  offset_t out = 0;
  for (idx_t k = 0; k < n; ++k) {
    const idx_t r = p.perm[k];
    for (offset_t q = rp[r]; q < rp[static_cast<std::size_t>(r) + 1]; ++q) {
      const idx_t i = p.inv_perm[ci[q]];
      if (i < k) pattern.col_idx[out++] = i;
    }
  }
  return pattern;
}

idx_t ereach(const LowerPattern& a, idx_t k, const std::vector<idx_t>& parent,
             std::vector<idx_t>& s, std::vector<idx_t>& mark, idx_t stamp) {
  idx_t top = a.n;
  mark[k] = stamp;
  const offset_t end = a.row_ptr[static_cast<std::size_t>(k) + 1];
  for (offset_t p = a.row_ptr[k]; p < end; ++p) {
    idx_t i = a.col_idx[p];
    idx_t len = 0;
    for (; mark[i] != stamp; i = parent[i]) {
      s[len++] = i;
      mark[i] = stamp;
    }
    while (len > 0) s[--top] = s[--len];
  }
  return top;
}

std::vector<idx_t> elimination_tree(const LowerPattern& a) {
  const idx_t n = a.n;
  std::vector<idx_t> parent(n, -1), ancestor(n, -1);
  for (idx_t k = 0; k < n; ++k) {
    const offset_t end = a.row_ptr[static_cast<std::size_t>(k) + 1];
    for (offset_t p = a.row_ptr[k]; p < end; ++p) {
      idx_t i = a.col_idx[p];
      while (i != -1 && i != k) {
        const idx_t next = ancestor[i];
        ancestor[i] = k;
        if (next == -1) parent[i] = k;
        i = next;
      }
    }
  }
  return parent;
}

std::vector<idx_t> cholesky_column_counts(const LowerPattern& a, const std::vector<idx_t>& parent) {
  const idx_t n = a.n;
  std::vector<idx_t> counts(n, 1), s(n), mark(n, -1);
  for (idx_t k = 0; k < n; ++k) {
    const idx_t top = ereach(a, k, parent, s, mark, k);
    for (idx_t t = top; t < n; ++t) ++counts[s[t]];
  }
  return counts;
}

std::vector<idx_t> etree_postorder(const std::vector<idx_t>& parent) {
  const idx_t n = static_cast<idx_t>(parent.size());
  // Children lists in ascending order: insert n-1 .. 0 at the head.
  std::vector<idx_t> head(n, -1), next(n, -1);
  for (idx_t v = n - 1; v >= 0; --v) {
    if (parent[v] == -1) continue;
    next[v] = head[parent[v]];
    head[parent[v]] = v;
  }
  std::vector<idx_t> post;
  post.reserve(n);
  std::vector<idx_t> stack;
  for (idx_t root = 0; root < n; ++root) {
    if (parent[root] != -1) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const idx_t v = stack.back();
      const idx_t child = head[v];
      if (child == -1) {
        post.push_back(v);
        stack.pop_back();
      } else {
        head[v] = next[child];  // consume the child link
        stack.push_back(child);
      }
    }
  }
  return post;
}

offset_t SupernodalFactor::factor_nnz() const {
  offset_t nnz = 0;
  for (idx_t s = 0; s < num_supernodes; ++s) {
    const offset_t m = row_start[static_cast<std::size_t>(s) + 1] - row_start[s];
    const offset_t w = super_start[static_cast<std::size_t>(s) + 1] - super_start[s];
    nnz += m * w - w * (w - 1) / 2;  // rectangle minus the strict upper wedge
  }
  return nnz;
}

std::size_t SupernodalFactor::memory_bytes() const {
  return values.size() * sizeof(double) + rows.size() * sizeof(idx_t) +
         (super_start.size() + col_super.size()) * sizeof(idx_t) +
         (row_start.size() + val_start.size()) * sizeof(offset_t);
}

void SupernodalFactor::extract(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                               std::vector<double>& out_values) const {
  col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (idx_t s = 0; s < num_supernodes; ++s) {
    const idx_t c0 = super_start[s];
    const idx_t w = super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t m = row_start[static_cast<std::size_t>(s) + 1] - row_start[s];
    for (idx_t j = 0; j < w; ++j) {
      col_ptr[static_cast<std::size_t>(c0 + j) + 1] = m - j;
    }
  }
  for (idx_t j = 0; j < n; ++j) col_ptr[static_cast<std::size_t>(j) + 1] += col_ptr[j];
  row_idx.assign(static_cast<std::size_t>(col_ptr[n]), 0);
  out_values.assign(static_cast<std::size_t>(col_ptr[n]), 0.0);
  for (idx_t s = 0; s < num_supernodes; ++s) {
    const idx_t c0 = super_start[s];
    const idx_t w = super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t r0 = row_start[s];
    const idx_t m = static_cast<idx_t>(row_start[static_cast<std::size_t>(s) + 1] - r0);
    const idx_t* rs = rows.data() + r0;
    const double* panel = values.data() + val_start[s];
    for (idx_t j = 0; j < w; ++j) {
      offset_t out = col_ptr[c0 + j];
      for (idx_t i = j; i < m; ++i) {
        row_idx[out] = rs[i];
        out_values[out] = panel[static_cast<std::size_t>(j) * m + i];
        ++out;
      }
    }
  }
}

SupernodalFactor analyze_supernodes(const LowerPattern& a, const std::vector<idx_t>& parent,
                                    const std::vector<idx_t>& counts, idx_t max_width) {
  const idx_t n = a.n;
  if (max_width < 1) max_width = 1;

  SupernodalFactor f;
  f.n = n;
  f.col_super.assign(n, 0);

  // Fundamental supernodes (width-capped).
  for (idx_t j = 0; j < n; ++j) {
    const bool extend = j > 0 && parent[j - 1] == j && counts[j] == counts[j - 1] - 1 &&
                        j - f.super_start.back() < max_width;
    if (!extend) f.super_start.push_back(j);
  }
  f.num_supernodes = static_cast<idx_t>(f.super_start.size());
  f.super_start.push_back(n);
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    for (idx_t j = f.super_start[s]; j < f.super_start[static_cast<std::size_t>(s) + 1]; ++j) {
      f.col_super[j] = s;
    }
  }

  // Pattern sizes: every column of a supernode shares its first column's
  // pattern of counts[first column] rows.
  f.row_start.assign(static_cast<std::size_t>(f.num_supernodes) + 1, 0);
  f.val_start.assign(static_cast<std::size_t>(f.num_supernodes) + 1, 0);
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    const offset_t m = counts[f.super_start[s]];
    const offset_t w = f.super_start[static_cast<std::size_t>(s) + 1] - f.super_start[s];
    f.row_start[static_cast<std::size_t>(s) + 1] = f.row_start[s] + m;
    f.val_start[static_cast<std::size_t>(s) + 1] = f.val_start[s] + m * w;
  }
  f.rows.assign(static_cast<std::size_t>(f.row_start[f.num_supernodes]), 0);

  // Fill patterns: own columns first, then the below rows in ascending order
  // via the row sweep (k ascending appends ascending rows). Row k belongs to
  // supernode s's pattern iff L(k, first column of s) != 0, i.e. that column
  // shows up in ereach(k).
  std::vector<offset_t> fill(f.num_supernodes);
  std::vector<idx_t> lead_super(n, -1);
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    const idx_t c0 = f.super_start[s];
    const idx_t c1 = f.super_start[static_cast<std::size_t>(s) + 1];
    offset_t pos = f.row_start[s];
    for (idx_t j = c0; j < c1; ++j) f.rows[pos++] = j;
    fill[s] = pos;
    lead_super[c0] = s;
  }
  std::vector<idx_t> stack(n), mark(n, -1);
  for (idx_t k = 0; k < n; ++k) {
    const idx_t top = ereach(a, k, parent, stack, mark, k);
    for (idx_t t = top; t < n; ++t) {
      const idx_t s = lead_super[stack[t]];
      if (s != -1 && k >= f.super_start[static_cast<std::size_t>(s) + 1]) {
        f.rows[fill[s]++] = k;
      }
    }
  }
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    assert(fill[s] == f.row_start[static_cast<std::size_t>(s) + 1]);
  }
  return f;
}

void syrk_panel_lower(const double* a, idx_t lda, idx_t i_begin, idx_t i_end, idx_t nj, idx_t k,
                      double* c, idx_t ldc) {
  constexpr idx_t kTile = 4;
  for (idx_t j0 = 0; j0 < nj; j0 += kTile) {
    const idx_t jb = std::min(kTile, nj - j0);
    // Tiles entirely above the i >= j trapezoid are never consumed. Both
    // tile shapes sum each entry over t ascending from zero, so where the
    // row grid starts does not change any value.
    for (idx_t i0 = std::max(i_begin, j0); i0 < i_end; i0 += kTile) {
      const idx_t ib = std::min(kTile, i_end - i0);
      if (ib == kTile && jb == kTile) {
        double acc00 = 0, acc10 = 0, acc20 = 0, acc30 = 0;
        double acc01 = 0, acc11 = 0, acc21 = 0, acc31 = 0;
        double acc02 = 0, acc12 = 0, acc22 = 0, acc32 = 0;
        double acc03 = 0, acc13 = 0, acc23 = 0, acc33 = 0;
        const double* ai = a + i0;
        const double* aj = a + j0;
        for (idx_t t = 0; t < k; ++t) {
          const double r0 = ai[0], r1 = ai[1], r2 = ai[2], r3 = ai[3];
          const double c0 = aj[0], c1 = aj[1], c2 = aj[2], c3 = aj[3];
          acc00 += r0 * c0; acc10 += r1 * c0; acc20 += r2 * c0; acc30 += r3 * c0;
          acc01 += r0 * c1; acc11 += r1 * c1; acc21 += r2 * c1; acc31 += r3 * c1;
          acc02 += r0 * c2; acc12 += r1 * c2; acc22 += r2 * c2; acc32 += r3 * c2;
          acc03 += r0 * c3; acc13 += r1 * c3; acc23 += r2 * c3; acc33 += r3 * c3;
          ai += lda;
          aj += lda;
        }
        double* c0p = c + static_cast<std::size_t>(j0) * ldc + (i0 - i_begin);
        double* c1p = c0p + ldc;
        double* c2p = c1p + ldc;
        double* c3p = c2p + ldc;
        c0p[0] = acc00; c0p[1] = acc10; c0p[2] = acc20; c0p[3] = acc30;
        c1p[0] = acc01; c1p[1] = acc11; c1p[2] = acc21; c1p[3] = acc31;
        c2p[0] = acc02; c2p[1] = acc12; c2p[2] = acc22; c2p[3] = acc32;
        c3p[0] = acc03; c3p[1] = acc13; c3p[2] = acc23; c3p[3] = acc33;
      } else {
        double acc[kTile][kTile] = {};
        const double* col = a;
        for (idx_t t = 0; t < k; ++t, col += lda) {
          for (idx_t jj = 0; jj < jb; ++jj) {
            const double cj = col[j0 + jj];
            for (idx_t ii = 0; ii < ib; ++ii) acc[jj][ii] += col[i0 + ii] * cj;
          }
        }
        for (idx_t jj = 0; jj < jb; ++jj) {
          double* out = c + static_cast<std::size_t>(j0 + jj) * ldc + (i0 - i_begin);
          for (idx_t ii = 0; ii < ib; ++ii) out[ii] = acc[jj][ii];
        }
      }
    }
  }
}

namespace {

/// Pending rank-k multiply-adds above which a top supernode is factored by
/// the whole OpenMP team, split by panel rows. It stands for the fixed cost
/// of one team fork: waking the workers, the two barriers and the join,
/// tens of microseconds, about what one core spends on this many
/// multiply-adds in the register-tiled kernel. That cost belongs to the
/// host's OpenMP runtime, not to the matrix or the caller, and the split
/// leaves the factor bitwise unchanged, so it is a constant, not an option.
constexpr double kRowSplitWork = 2e5;

/// Resolved view of one supernode's dense panel.
struct PanelRef {
  idx_t s = 0, c0 = 0, c1 = 0, w = 0, m = 0;
  const idx_t* rs = nullptr;
  double* panel = nullptr;
};

PanelRef panel_of(SupernodalFactor& f, idx_t s) {
  PanelRef p;
  p.s = s;
  p.c0 = f.super_start[s];
  p.c1 = f.super_start[static_cast<std::size_t>(s) + 1];
  p.w = p.c1 - p.c0;
  const offset_t r0 = f.row_start[s];
  p.m = static_cast<idx_t>(f.row_start[static_cast<std::size_t>(s) + 1] - r0);
  p.rs = f.rows.data() + r0;
  p.panel = f.values.data() + f.val_start[s];
  return p;
}

/// Scatter the lower triangle of P A P^T's panel columns straight from A.
/// A is symmetric full storage, so permuted column j is row perm[j] of A,
/// keeping the entries whose permuted index i = inv_perm[col] is >= j.
void scatter_panel(const CsrMatrix& a, const Permutation& perm, const PanelRef& p,
                   const std::vector<idx_t>& relmap) {
  for (idx_t j = p.c0; j < p.c1; ++j) {
    double* col = p.panel + static_cast<std::size_t>(j - p.c0) * p.m;
    const idx_t r = perm.perm[j];
    const offset_t end = a.row_ptr()[static_cast<std::size_t>(r) + 1];
    for (offset_t q = a.row_ptr()[r]; q < end; ++q) {
      const idx_t i = perm.inv_perm[a.col_idx()[q]];
      if (i >= j) col[relmap[i]] = a.values()[q];
    }
  }
}

/// Descendant d's pending rank-k update of one panel, k = d's width: rows
/// [q0, dm) of d's pattern are the panel rows it reaches, and the first
/// q1 - q0 of them are panel columns.
struct PendingUpdate {
  idx_t d = 0, k = 0, q0 = 0, q1 = 0, dm = 0;

  /// Multiply-adds of the rank-k product, ni * nj * k.
  [[nodiscard]] double work() const {
    return static_cast<double>(dm - q0) * static_cast<double>(q1 - q0) * k;
  }
};

PendingUpdate pending_update(const SupernodalFactor& f, const std::vector<idx_t>& dptr, idx_t d,
                             const PanelRef& p) {
  PendingUpdate u;
  u.d = d;
  u.k = f.super_start[static_cast<std::size_t>(d) + 1] - f.super_start[d];
  const offset_t dr0 = f.row_start[d];
  u.dm = static_cast<idx_t>(f.row_start[static_cast<std::size_t>(d) + 1] - dr0);
  const idx_t* drows = f.rows.data() + dr0;
  u.q0 = dptr[d];
  u.q1 = u.q0;
  while (u.q1 < u.dm && drows[u.q1] < p.c1) ++u.q1;
  return u;
}

/// Subtract update u from the panel rows [r_begin, r_end) of p. d's reached
/// rows ascend and all lie in p's pattern, so the ones landing in the slice
/// are one contiguous run; the kernel computes only that run, and every
/// entry receives the same value as from a whole-panel call.
void apply_update(const SupernodalFactor& f, const PendingUpdate& u, const PanelRef& p,
                  const std::vector<idx_t>& relmap, idx_t r_begin, idx_t r_end,
                  std::vector<double>& scratch) {
  const idx_t* drows = f.rows.data() + f.row_start[u.d] + u.q0;
  const idx_t ni = u.dm - u.q0;
  const idx_t nj = u.q1 - u.q0;
  // Index of d's first reached row at or after panel row r.
  const auto first_at = [&](idx_t r) {
    if (r == p.m) return ni;
    return static_cast<idx_t>(std::lower_bound(drows, drows + ni, p.rs[r]) - drows);
  };
  const idx_t i_begin = first_at(r_begin);
  const idx_t i_end = first_at(r_end);
  if (i_begin >= i_end) return;
  const idx_t ldc = i_end - i_begin;
  scratch.resize(static_cast<std::size_t>(ldc) * nj);
  const double* dpanel = f.values.data() + f.val_start[u.d] + u.q0;
  syrk_panel_lower(dpanel, u.dm, i_begin, i_end, nj, u.k, scratch.data(), ldc);
  for (idx_t jj = 0; jj < nj; ++jj) {
    double* col = p.panel + static_cast<std::size_t>(drows[jj] - p.c0) * p.m;
    const double* src = scratch.data() + static_cast<std::size_t>(jj) * ldc;
    for (idx_t ii = std::max(jj, i_begin); ii < i_end; ++ii) {
      col[relmap[drows[ii]]] -= src[ii - i_begin];
    }
  }
}

/// Advance d's row cursor past update u. Returns the supernode of d's next
/// unconsumed row, or -1 when d is exhausted.
idx_t advance_update(const SupernodalFactor& f, std::vector<idx_t>& dptr, const PendingUpdate& u) {
  if (u.q1 == u.dm) return -1;
  dptr[u.d] = u.q1;
  return f.col_super[f.rows[f.row_start[u.d] + u.q1]];
}

/// Cholesky of panel p's w x w diagonal block, column by column.
void factor_diagonal_block(const PanelRef& p) {
  for (idx_t j = 0; j < p.w; ++j) {
    double* colj = p.panel + static_cast<std::size_t>(j) * p.m;
    for (idx_t t = 0; t < j; ++t) {
      const double ljt = p.panel[static_cast<std::size_t>(t) * p.m + j];
      const double* colt = p.panel + static_cast<std::size_t>(t) * p.m;
      for (idx_t i = j; i < p.w; ++i) colj[i] -= ljt * colt[i];
    }
    const double diag = colj[j];
    if (diag <= 0.0) {
      throw NotPositiveDefiniteError();
    }
    const double root = std::sqrt(diag);
    colj[j] = root;
    const double inv = 1.0 / root;
    for (idx_t i = j + 1; i < p.w; ++i) colj[i] *= inv;
  }
}

/// Below-diagonal rows [i_begin, i_end) (i_begin >= w) of the panel
/// factorization, once the diagonal block is factored: column by column,
/// each row takes the earlier columns' updates in ascending order, then the
/// column's reciprocal pivot. Rows are independent, so any row split
/// reproduces the whole-panel sweep bit for bit.
void factor_rows_below(const PanelRef& p, idx_t i_begin, idx_t i_end) {
  for (idx_t j = 0; j < p.w; ++j) {
    double* colj = p.panel + static_cast<std::size_t>(j) * p.m;
    for (idx_t t = 0; t < j; ++t) {
      const double ljt = p.panel[static_cast<std::size_t>(t) * p.m + j];
      const double* colt = p.panel + static_cast<std::size_t>(t) * p.m;
      for (idx_t i = i_begin; i < i_end; ++i) colj[i] -= ljt * colt[i];
    }
    const double inv = 1.0 / colj[j];
    for (idx_t i = i_begin; i < i_end; ++i) colj[i] *= inv;
  }
}

/// First exception thrown by any thread of an OpenMP region. Exceptions may
/// not leave a region, so each thread's work runs through run(), and the
/// exception is rethrown unchanged after the join.
class TeamError {
 public:
  /// Run fn unless an earlier call failed; capture the first throw.
  template <typename Fn>
  void run(Fn&& fn) {
    if (failed_.load(std::memory_order_acquire)) return;
    try {
      fn();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }

  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::exception_ptr error_;
};

void numeric_fault_probe() {
  if (util::FaultInjector::enabled()) util::FaultInjector::global().fire("la.numeric");
}

/// Deterministic elimination-tree partition for the two-phase numeric
/// factorization: disjoint supernodal subtrees of bounded weight, each a
/// contiguous descendant-closed supernode range [lo[i], hi[i]]. sub_of maps
/// each supernode to its subtree (or -1 for the top set). Returns
/// empty ranges when the column order defeats the contiguity/closure
/// invariants (possible without an etree postorder).
struct SubtreePartition {
  std::vector<idx_t> lo, hi;       ///< inclusive supernode ranges
  std::vector<idx_t> sub_of;       ///< supernode -> subtree index or -1
};

SubtreePartition partition_subtrees(const std::vector<idx_t>& parent, const SupernodalFactor& f) {
  const idx_t n = f.n;
  const idx_t ns = f.num_supernodes;
  SubtreePartition part;
  part.sub_of.assign(ns, -1);
  if (ns <= 1) return part;

  // Supernodal assembly-tree parent (supernode of the first below-panel row)
  // and subtree weights (sum of m*w panel areas). The parent index always
  // exceeds the child's, so one ascending sweep accumulates the weights.
  std::vector<idx_t> sparent(ns, -1);
  std::vector<double> wsub(ns, 0.0);
  double total = 0.0;
  for (idx_t s = 0; s < ns; ++s) {
    const idx_t w = f.super_start[static_cast<std::size_t>(s) + 1] - f.super_start[s];
    const idx_t m = static_cast<idx_t>(f.row_start[static_cast<std::size_t>(s) + 1] -
                                       f.row_start[s]);
    const double weight = static_cast<double>(m) * static_cast<double>(w);
    wsub[s] += weight;
    total += weight;
    if (m > w) sparent[s] = f.col_super[f.rows[f.row_start[s] + w]];
  }
  for (idx_t s = 0; s < ns; ++s) {
    if (sparent[s] != -1) wsub[sparent[s]] += wsub[s];
  }
  // Fixed fan-out target, independent of the thread count — the partition
  // (and therefore every floating-point summation order) depends on the
  // matrix alone.
  const double cap = total / 64.0;

  // Column-level minimum descendant per scalar-etree subtree. parent[j] > j
  // always, so one ascending sweep finalizes each column before propagating.
  std::vector<idx_t> min_desc(n);
  for (idx_t j = 0; j < n; ++j) min_desc[j] = j;
  for (idx_t j = 0; j < n; ++j) {
    if (parent[j] != -1) min_desc[parent[j]] = std::min(min_desc[parent[j]], min_desc[j]);
  }

  // Maximal light subtrees: wsub <= cap while the parent's subtree exceeds
  // it. wsub is monotone along ancestor chains, so the selected subtrees are
  // disjoint; with a postordered column space each is the contiguous range
  // ending at its root supernode and starting at the root column's minimum
  // descendant.
  bool valid = true;
  for (idx_t s = 0; s < ns && valid; ++s) {
    if (wsub[s] > cap || (sparent[s] != -1 && wsub[sparent[s]] <= cap)) continue;
    const idx_t top_col = f.super_start[static_cast<std::size_t>(s) + 1] - 1;
    const idx_t lo_col = min_desc[top_col];
    const idx_t lo = f.col_super[lo_col];
    if (f.super_start[lo] != lo_col) {  // a supernode straddles the boundary
      valid = false;
      break;
    }
    part.lo.push_back(lo);
    part.hi.push_back(s);
    const idx_t id = static_cast<idx_t>(part.lo.size()) - 1;
    for (idx_t t = lo; t <= s; ++t) {
      if (part.sub_of[t] != -1) {
        valid = false;
        break;
      }
      part.sub_of[t] = id;
    }
  }
  // Descendant closure: no etree edge may enter a subtree from outside it,
  // otherwise an update into the range would originate beyond it.
  if (valid) {
    for (idx_t k = 0; k < n; ++k) {
      const idx_t p = parent[k];
      if (p == -1) continue;
      const idx_t sp = part.sub_of[f.col_super[p]];
      if (sp != -1 && part.sub_of[f.col_super[k]] != sp) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    part.lo.clear();
    part.hi.clear();
    std::fill(part.sub_of.begin(), part.sub_of.end(), -1);
  }
  return part;
}

}  // namespace

void factorize_supernodal(const CsrMatrix& a, const Permutation& perm,
                          const std::vector<idx_t>& parent, SupernodalFactor& f, bool parallel) {
  assert(a.rows() == f.n && perm.size() == f.n && static_cast<idx_t>(parent.size()) == f.n);
  const idx_t n = f.n;
  const idx_t ns = f.num_supernodes;
  std::vector<idx_t> dptr(ns, 0);
  // Zeroed panels (also on refactorization): entries of L that A does not
  // store start from zero.
  f.values.assign(static_cast<std::size_t>(f.val_start[ns]), 0.0);

  const SubtreePartition part = partition_subtrees(parent, f);
  const idx_t nsub = static_cast<idx_t>(part.lo.size());

  // Phase 1: factor the light subtrees. Each subtree is descendant-closed,
  // so its supernodes consume updates that originate inside its range only;
  // the shared head/next_d/dptr slots it touches are its own, which makes
  // the loop race-free. Updates whose next target row lies beyond the
  // subtree are deferred for the top phase. Within a subtree the work is
  // the serial left-looking loop, so phase-1 panels are bitwise independent
  // of the thread count.
  std::vector<idx_t> head(ns, -1), next_d(ns, -1);
  std::vector<std::vector<idx_t>> deferred(nsub);
  TeamError subtree_error;
#pragma omp parallel if (parallel)
  {
    std::vector<idx_t> relmap(n, -1);
    std::vector<double> scratch;
#pragma omp for schedule(dynamic)
    for (idx_t t = 0; t < nsub; ++t) {
      subtree_error.run([&] {
        for (idx_t s = part.lo[t]; s <= part.hi[t]; ++s) {
          numeric_fault_probe();
          const PanelRef p = panel_of(f, s);
          for (idx_t i = 0; i < p.m; ++i) relmap[p.rs[i]] = i;
          scatter_panel(a, perm, p, relmap);
          idx_t d = head[s];
          head[s] = -1;
          while (d != -1) {
            const idx_t d_after = next_d[d];
            const PendingUpdate u = pending_update(f, dptr, d, p);
            apply_update(f, u, p, relmap, 0, p.m, scratch);
            const idx_t tgt = advance_update(f, dptr, u);
            if (tgt != -1) {
              if (tgt <= part.hi[t]) {
                next_d[d] = head[tgt];
                head[tgt] = d;
              } else {
                deferred[t].push_back(d);
              }
            }
            d = d_after;
          }
          factor_diagonal_block(p);
          factor_rows_below(p, p.w, p.m);
          if (p.m > p.w) {
            dptr[s] = p.w;
            const idx_t tgt = f.col_super[p.rs[p.w]];
            if (tgt <= part.hi[t]) {
              next_d[s] = head[tgt];
              head[tgt] = s;
            } else {
              deferred[t].push_back(s);
            }
          }
        }
      });
    }
  }
  subtree_error.rethrow();

  // Phase 2: the remaining top supernodes, ascending. Pending update lists
  // are seeded from the deferred lists in subtree-index order — each list's
  // internal order is thread-invariant, so the concatenation is
  // deterministic without sorting. Every deferred or top-phase update
  // targets a top supernode (its target is an etree ancestor of a subtree
  // root, and wsub grows monotonically along ancestors), so the vectors
  // below are complete by the time each supernode is reached.
  //
  // A supernode whose pending rank-k work exceeds kRowSplitWork is factored
  // by the whole team, split by panel rows: each thread applies every
  // pending update, in pending order, to its own row slice, one thread
  // factors the diagonal block, and each thread then finishes its slice of
  // the rows below it. Every entry receives the same operations in the same
  // order as with a team of one, so the factor does not depend on the team
  // size. Cursors advance after the join, in pending order.
  std::vector<std::vector<idx_t>> pending(ns);
  for (idx_t t = 0; t < nsub; ++t) {
    for (const idx_t d : deferred[t]) {
      pending[f.col_super[f.rows[f.row_start[d] + dptr[d]]]].push_back(d);
    }
  }
  std::vector<idx_t> relmap(n, -1);
  std::vector<std::vector<double>> scratch(static_cast<std::size_t>(max_team_size()));
  std::vector<PendingUpdate> updates;
  for (idx_t s = 0; s < ns; ++s) {
    if (part.sub_of[s] != -1) continue;
    numeric_fault_probe();
    const PanelRef p = panel_of(f, s);
    for (idx_t i = 0; i < p.m; ++i) relmap[p.rs[i]] = i;
    scatter_panel(a, perm, p, relmap);
    updates.clear();
    double work = 0.0;
    for (const idx_t d : pending[s]) {
      updates.push_back(pending_update(f, dptr, d, p));
      work += updates.back().work();
    }
    TeamError panel_error;
#pragma omp parallel if (parallel && work > kRowSplitWork)
    {
      const TeamMember me = team_member();
      panel_error.run([&] {
        const auto [lo, hi] = me.slice(0, p.m);
        for (const PendingUpdate& u : updates) {
          apply_update(f, u, p, relmap, lo, hi, scratch[static_cast<std::size_t>(me.rank)]);
        }
      });
#pragma omp barrier
#pragma omp single
      panel_error.run([&] { factor_diagonal_block(p); });
      panel_error.run([&] {
        const auto [lo, hi] = me.slice(p.w, p.m);
        factor_rows_below(p, lo, hi);
      });
    }
    panel_error.rethrow();
    for (const PendingUpdate& u : updates) {
      const idx_t tgt = advance_update(f, dptr, u);
      if (tgt != -1) {
        assert(part.sub_of[tgt] == -1);
        pending[tgt].push_back(u.d);
      }
    }
    if (p.m > p.w) {
      dptr[s] = p.w;
      pending[f.col_super[p.rs[p.w]]].push_back(s);
    }
  }
}

namespace {

// Fixed-width solve kernels: the per-case loop is a compile-time constant so
// the case values live in registers and the loop body compiles to straight
// FMA code instead of a trip-count-one runtime loop (which costs 2-3x on the
// single-RHS path the transient stepper hammers). `stride` is the full panel
// width; each kernel touches the NRHS consecutive cases at x + i * stride.
// Per case the operation order is identical across widths, so chunked panel
// solves reproduce one-at-a-time solves bitwise.

template <int NRHS>
void forward_solve_fixed(const SupernodalFactor& f, double* x, idx_t stride) {
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    const idx_t c0 = f.super_start[s];
    const idx_t w = f.super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t r0 = f.row_start[s];
    const idx_t m = static_cast<idx_t>(f.row_start[static_cast<std::size_t>(s) + 1] - r0);
    const idx_t* rs = f.rows.data() + r0;
    const double* panel = f.values.data() + f.val_start[s];
    for (idx_t j = 0; j < w; ++j) {
      const double* colj = panel + static_cast<std::size_t>(j) * m;
      double* xj = x + static_cast<std::size_t>(c0 + j) * stride;
      const double inv = 1.0 / colj[j];
      double v[NRHS];
      for (int r = 0; r < NRHS; ++r) {
        v[r] = xj[r] * inv;
        xj[r] = v[r];
      }
      for (idx_t i = j + 1; i < w; ++i) {
        const double lij = colj[i];
        double* xi = x + static_cast<std::size_t>(c0 + i) * stride;
        for (int r = 0; r < NRHS; ++r) xi[r] -= lij * v[r];
      }
      for (idx_t i = w; i < m; ++i) {
        const double lij = colj[i];
        double* xi = x + static_cast<std::size_t>(rs[i]) * stride;
        for (int r = 0; r < NRHS; ++r) xi[r] -= lij * v[r];
      }
    }
  }
}

template <int NRHS>
void backward_solve_fixed(const SupernodalFactor& f, double* x, idx_t stride) {
  for (idx_t s = f.num_supernodes - 1; s >= 0; --s) {
    const idx_t c0 = f.super_start[s];
    const idx_t w = f.super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t r0 = f.row_start[s];
    const idx_t m = static_cast<idx_t>(f.row_start[static_cast<std::size_t>(s) + 1] - r0);
    const idx_t* rs = f.rows.data() + r0;
    const double* panel = f.values.data() + f.val_start[s];
    for (idx_t j = w - 1; j >= 0; --j) {
      const double* colj = panel + static_cast<std::size_t>(j) * m;
      double* xj = x + static_cast<std::size_t>(c0 + j) * stride;
      double acc[NRHS];
      for (int r = 0; r < NRHS; ++r) acc[r] = xj[r];
      for (idx_t i = j + 1; i < w; ++i) {
        const double lij = colj[i];
        const double* xi = x + static_cast<std::size_t>(c0 + i) * stride;
        for (int r = 0; r < NRHS; ++r) acc[r] -= lij * xi[r];
      }
      for (idx_t i = w; i < m; ++i) {
        const double lij = colj[i];
        const double* xi = x + static_cast<std::size_t>(rs[i]) * stride;
        for (int r = 0; r < NRHS; ++r) acc[r] -= lij * xi[r];
      }
      const double inv = 1.0 / colj[j];
      for (int r = 0; r < NRHS; ++r) xj[r] = acc[r] * inv;
    }
  }
}

/// Run the fixed-width kernels over the panel in chunks of 8/4/2/1 cases.
template <typename Fn8, typename Fn4, typename Fn2, typename Fn1>
void dispatch_chunks(idx_t nrhs, Fn8&& f8, Fn4&& f4, Fn2&& f2, Fn1&& f1) {
  idx_t done = 0;
  while (done < nrhs) {
    const idx_t left = nrhs - done;
    if (left >= 8) {
      f8(done);
      done += 8;
    } else if (left >= 4) {
      f4(done);
      done += 4;
    } else if (left >= 2) {
      f2(done);
      done += 2;
    } else {
      f1(done);
      done += 1;
    }
  }
}

}  // namespace

void supernodal_forward_solve(const SupernodalFactor& f, double* x, idx_t nrhs) {
  dispatch_chunks(
      nrhs, [&](idx_t at) { forward_solve_fixed<8>(f, x + at, nrhs); },
      [&](idx_t at) { forward_solve_fixed<4>(f, x + at, nrhs); },
      [&](idx_t at) { forward_solve_fixed<2>(f, x + at, nrhs); },
      [&](idx_t at) { forward_solve_fixed<1>(f, x + at, nrhs); });
}

void supernodal_backward_solve(const SupernodalFactor& f, double* x, idx_t nrhs) {
  dispatch_chunks(
      nrhs, [&](idx_t at) { backward_solve_fixed<8>(f, x + at, nrhs); },
      [&](idx_t at) { backward_solve_fixed<4>(f, x + at, nrhs); },
      [&](idx_t at) { backward_solve_fixed<2>(f, x + at, nrhs); },
      [&](idx_t at) { backward_solve_fixed<1>(f, x + at, nrhs); });
}

}  // namespace ms::la
