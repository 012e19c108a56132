#include "la/cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ms::la {
namespace {

bool is_identity_order(const std::vector<idx_t>& order) {
  for (idx_t i = 0; i < static_cast<idx_t>(order.size()); ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

// Registry handles are stable for the process lifetime; cache them once so
// the per-panel solve path records with lock-free atomics only (no registry
// mutex inside OpenMP regions). They write the registry only, not the
// query's row: the triangular solves also run on the local stage's OpenMP
// team, where no query scope is installed, so a row would get a share that
// depends on the thread schedule.
struct CholeskyMetrics {
  obs::Counter& factorizations;
  obs::Counter& solve_rhs;
  obs::Histogram& factor_seconds;
  obs::Histogram& ordering_seconds;
  obs::Histogram& symbolic_seconds;
  obs::Histogram& numeric_seconds;
  obs::Histogram& solve_seconds;
  obs::Gauge& factor_nnz;
  obs::Gauge& fill_ratio;
  obs::Gauge& num_supernodes;
};

CholeskyMetrics& chol_metrics() {
  auto& reg = obs::MetricRegistry::global();
  static CholeskyMetrics m{reg.counter("la.cholesky.factorizations"),
                           reg.counter("la.cholesky.solve_rhs"),
                           reg.histogram("la.cholesky.factor_seconds"),
                           reg.histogram("la.cholesky.ordering_seconds"),
                           reg.histogram("la.cholesky.symbolic_seconds"),
                           reg.histogram("la.cholesky.numeric_seconds"),
                           reg.histogram("la.cholesky.solve_seconds"),
                           reg.gauge("la.cholesky.factor_nnz"),
                           reg.gauge("la.cholesky.fill_ratio"),
                           reg.gauge("la.cholesky.num_supernodes")};
  return m;
}

}  // namespace

SparseCholesky::SparseCholesky(const CsrMatrix& a, Options /*options*/) : ordering_name_("amd") {
  factor(a, nullptr);
}

SparseCholesky::SparseCholesky(const CsrMatrix& a, Permutation order)
    : ordering_name_("nested-dissection") {
  factor(a, &order);
}

void SparseCholesky::factor(const CsrMatrix& a, Permutation* order) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseCholesky: matrix must be square");
  if (order != nullptr && (order->size() != a.rows() || !order->is_valid())) {
    throw std::invalid_argument("SparseCholesky: the order is not a permutation of the " +
                                std::to_string(a.rows()) + " rows");
  }
  CholeskyMetrics& metrics = chol_metrics();
  obs::ScopedSpan factor_span("la.cholesky.factor", metrics.factor_seconds);
  n_ = a.rows();
  {
    obs::ScopedSpan span("la.cholesky.ordering", metrics.ordering_seconds);
    perm_ = order != nullptr ? std::move(*order) : amd_ordering(a);
  }
  // The numeric phase's subtree partition reuses the symbolic etree.
  std::vector<idx_t> parent;
  {
    obs::ScopedSpan span("la.cholesky.symbolic", metrics.symbolic_seconds);
    LowerPattern pattern = lower_pattern(a, perm_);
    parent = elimination_tree(pattern);
    // Postorder the elimination tree so supernode columns land consecutively
    // (fill-neutral relabeling).
    const std::vector<idx_t> post = etree_postorder(parent);
    if (!is_identity_order(post)) {
      Permutation p2;
      p2.perm = post;
      p2.inv_perm.assign(n_, 0);
      for (idx_t i = 0; i < n_; ++i) p2.inv_perm[p2.perm[i]] = i;
      perm_ = perm_.then(p2);
      // A postorder is etree-consistent (children numbered before parents),
      // so the tree of the relabeled matrix is the relabeled tree — no
      // second etree sweep. Only the pattern is rebuilt, under the composed
      // permutation.
      std::vector<idx_t> relabeled(static_cast<std::size_t>(n_));
      for (idx_t v = 0; v < n_; ++v) {
        relabeled[p2.inv_perm[v]] = parent[v] == -1 ? -1 : p2.inv_perm[parent[v]];
      }
      parent = std::move(relabeled);
      pattern = LowerPattern{};  // release before rebuilding
      pattern = lower_pattern(a, perm_);
    }
    // nnz(tril(P A P^T)): the strictly-lower pattern plus the stored
    // diagonal, which a symmetric permutation keeps on the diagonal.
    matrix_lower_nnz_ = pattern.nnz();
    for (idx_t r = 0; r < n_; ++r) {
      const auto first = a.col_idx().begin() + a.row_ptr()[r];
      const auto last = a.col_idx().begin() + a.row_ptr()[static_cast<std::size_t>(r) + 1];
      if (std::binary_search(first, last, r)) ++matrix_lower_nnz_;
    }
    const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
    snf_ = analyze_supernodes(pattern, parent, counts, kMaxSupernodeWidth);
  }
  {
    obs::ScopedSpan span("la.cholesky.numeric", metrics.numeric_seconds);
    factorize_supernodal(a, perm_, parent, snf_, /*parallel=*/true);
  }
  metrics.factorizations.add(1);
  metrics.factor_nnz.set(static_cast<double>(factor_nnz()));
  metrics.fill_ratio.set(fill_ratio());
  metrics.num_supernodes.set(static_cast<double>(num_supernodes()));
}

void SparseCholesky::solve_with(const Vec& b, Vec& x, Vec& work) const {
  assert(static_cast<idx_t>(b.size()) == n_);
  x.resize(n_);
  solve_multi_with(b.data(), x.data(), 1, work);
}

std::vector<Vec> SparseCholesky::solve_multi(const std::vector<Vec>& cases) const {
  const idx_t num_cases = static_cast<idx_t>(cases.size());
  Vec panel(static_cast<std::size_t>(n_) * num_cases);
  for (idx_t c = 0; c < num_cases; ++c) {
    assert(static_cast<idx_t>(cases[c].size()) == n_);
    std::copy(cases[c].begin(), cases[c].end(),
              panel.begin() + static_cast<std::size_t>(c) * n_);
  }
  Vec x_panel(panel.size());
  Vec work;
  solve_multi_with(panel.data(), x_panel.data(), num_cases, work);
  std::vector<Vec> solutions(cases.size());
  for (idx_t c = 0; c < num_cases; ++c) {
    solutions[c].assign(x_panel.begin() + static_cast<std::size_t>(c) * n_,
                        x_panel.begin() + static_cast<std::size_t>(c + 1) * n_);
  }
  return solutions;
}

void SparseCholesky::solve_multi_with(const double* b, double* x, idx_t nrhs, Vec& work) const {
  assert(nrhs >= 1);
  CholeskyMetrics& metrics = chol_metrics();
  obs::ScopedSpan span("la.cholesky.triangular_solve", metrics.solve_seconds);
  metrics.solve_rhs.add(nrhs);
  work.resize(static_cast<std::size_t>(n_) * nrhs);
  double* y = work.data();
  // Gather into the permuted, dof-major layout (all nrhs values of one dof
  // contiguous): the innermost per-case loops of the kernels then vectorize
  // and every factor entry is loaded once per panel instead of once per rhs.
  for (idx_t i = 0; i < n_; ++i) {
    const idx_t src = perm_.perm[i];
    double* yi = y + static_cast<std::size_t>(i) * nrhs;
    for (idx_t r = 0; r < nrhs; ++r) yi[r] = b[static_cast<std::size_t>(r) * n_ + src];
  }
  supernodal_forward_solve(snf_, y, nrhs);
  supernodal_backward_solve(snf_, y, nrhs);
  for (idx_t i = 0; i < n_; ++i) {
    const idx_t dst = perm_.perm[i];
    const double* yi = y + static_cast<std::size_t>(i) * nrhs;
    for (idx_t r = 0; r < nrhs; ++r) x[static_cast<std::size_t>(r) * n_ + dst] = yi[r];
  }
}

Vec SparseCholesky::solve(const Vec& b) const {
  Vec x, work;
  solve_with(b, x, work);
  return x;
}

double SparseCholesky::fill_ratio() const {
  return matrix_lower_nnz_ > 0
             ? static_cast<double>(factor_nnz()) / static_cast<double>(matrix_lower_nnz_)
             : 1.0;
}

std::size_t SparseCholesky::memory_bytes() const {
  return 2 * perm_.perm.size() * sizeof(idx_t) + snf_.memory_bytes();
}

void SparseCholesky::extract_factor(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                                    std::vector<double>& values) const {
  snf_.extract(col_ptr, row_idx, values);
}

}  // namespace ms::la
