#include "fem/dirichlet.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "la/shift_retry.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

namespace ms::fem {

DirichletBc DirichletBc::clamp_nodes(const std::vector<idx_t>& nodes, const Vec& vals) {
  if (!vals.empty() && vals.size() != 3 * nodes.size()) {
    throw std::invalid_argument("DirichletBc::clamp_nodes: need 3 values per node");
  }
  DirichletBc bc;
  bc.dofs.reserve(3 * nodes.size());
  bc.values.reserve(3 * nodes.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (int c = 0; c < 3; ++c) {
      bc.add(3 * nodes[n] + c, vals.empty() ? 0.0 : vals[3 * n + c]);
    }
  }
  return bc;
}

namespace {

/// Expand the (dofs, values) pairs into dense constrained/value arrays.
void expand_bc(idx_t n, const DirichletBc& bc, std::vector<char>& constrained, Vec& value) {
  constrained.assign(n, 0);
  value.assign(n, 0.0);
  for (std::size_t k = 0; k < bc.dofs.size(); ++k) {
    const idx_t d = bc.dofs[k];
    assert(d >= 0 && d < n);
    constrained[d] = 1;
    value[d] = bc.values[k];
  }
}

/// The rhs half of the lifting against the *unlifted* operator: constrained
/// entries take the prescribed value, free entries receive the column
/// correction. Reads exactly the matrix values the fused loop reads before
/// zeroing them, so rhs-half-then-matrix-half reproduces the fused result
/// bit for bit.
void apply_dirichlet_rhs_impl(const CsrMatrix& a, Vec* const* rhss, std::size_t num_rhs,
                              const DirichletBc& bc) {
  assert(a.rows() == a.cols());
  const idx_t n = a.rows();
  for (std::size_t c = 0; c < num_rhs; ++c) {
    assert(static_cast<idx_t>(rhss[c]->size()) == n);
    (void)rhss[c];
  }

  std::vector<char> constrained;
  Vec value;
  expand_bc(n, bc, constrained, value);

  const auto& vals = a.values();
  const auto& row_ptr = a.row_ptr();
  const auto& col = a.col_idx();
  for (idx_t r = 0; r < n; ++r) {
    const la::offset_t end = row_ptr[static_cast<std::size_t>(r) + 1];
    if (constrained[r]) {
      for (std::size_t c = 0; c < num_rhs; ++c) (*rhss[c])[r] = value[r];
      continue;
    }
    for (la::offset_t k = row_ptr[r]; k < end; ++k) {
      if (constrained[col[k]]) {
        const double av = vals[k] * value[col[k]];
        for (std::size_t c = 0; c < num_rhs; ++c) (*rhss[c])[r] -= av;
      }
    }
  }
}

}  // namespace

void apply_dirichlet_rhs(const CsrMatrix& a, Vec& rhs, const DirichletBc& bc) {
  Vec* one = &rhs;
  apply_dirichlet_rhs_impl(a, &one, 1, bc);
}

void apply_dirichlet_rhs(const CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc) {
  std::vector<Vec*> ptrs;
  ptrs.reserve(rhss.size());
  for (Vec& rhs : rhss) ptrs.push_back(&rhs);
  apply_dirichlet_rhs_impl(a, ptrs.data(), ptrs.size(), bc);
}

void apply_dirichlet_matrix(CsrMatrix& a, const DirichletBc& bc) {
  assert(a.rows() == a.cols());
  const idx_t n = a.rows();
  std::vector<char> constrained;
  Vec value;
  expand_bc(n, bc, constrained, value);

  auto& vals = a.values();
  const auto& row_ptr = a.row_ptr();
  const auto& col = a.col_idx();
  for (idx_t r = 0; r < n; ++r) {
    const la::offset_t end = row_ptr[static_cast<std::size_t>(r) + 1];
    if (constrained[r]) {
      for (la::offset_t k = row_ptr[r]; k < end; ++k) vals[k] = (col[k] == r) ? 1.0 : 0.0;
      continue;
    }
    for (la::offset_t k = row_ptr[r]; k < end; ++k) {
      if (constrained[col[k]]) vals[k] = 0.0;
    }
  }
}

void apply_dirichlet(CsrMatrix& a, Vec& rhs, const DirichletBc& bc) {
  Vec* one = &rhs;
  apply_dirichlet_rhs_impl(a, &one, 1, bc);
  apply_dirichlet_matrix(a, bc);
}

void apply_dirichlet(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc) {
  std::vector<Vec*> ptrs;
  ptrs.reserve(rhss.size());
  for (Vec& rhs : rhss) ptrs.push_back(&rhs);
  apply_dirichlet_rhs_impl(a, ptrs.data(), ptrs.size(), bc);
  apply_dirichlet_matrix(a, bc);
}

la::FactorCache::Entry fetch_factor(CsrMatrix& a, const DirichletBc& bc,
                                    const FactorSource& source, bool keep_unlifted,
                                    la::FactorStats& stats) {
  util::WallTimer timer;
  la::FactorCache* cache = source.shared_cache();
  const auto build = [&]() {
    // Cancellation and fault checks live inside the builder on purpose: a
    // cancelled or injected-fault build throws, the cache clears the slot
    // (waiters retry), and no pending slot is ever poisoned.
    const std::string site = std::string(source.stage) + ".factor_build";
    source.cancel.check(site.c_str());
    if (util::FaultInjector::enabled()) util::FaultInjector::global().fire(site.c_str());
    if (a.rows() == 0) {
      throw std::logic_error(site + ": a factor build needs the assembled operator");
    }
    la::FactorCache::Entry fresh;
    if (cache != nullptr && keep_unlifted) fresh.matrix = std::make_shared<const CsrMatrix>(a);
    apply_dirichlet_matrix(a, bc);
    la::ShiftRetryResult factored =
        la::factor_with_shift_retry(a, (std::string(source.stage) + ".factor").c_str());
    fresh.factor = std::move(factored.factor);
    fresh.diagonal_shift = factored.shift;
    return fresh;
  };
  bool built = true;
  la::FactorCache::Entry entry =
      cache != nullptr ? cache->get_or_create(source.key, build, &built) : build();
  stats.factor_seconds = timer.seconds();
  stats.factor_nnz = entry.factor->factor_nnz();
  stats.fill_ratio = entry.factor->fill_ratio();
  stats.num_supernodes = entry.factor->num_supernodes();
  stats.ordering = entry.factor->ordering_name();
  stats.num_factorizations = built ? 1 : 0;
  stats.degraded = entry.diagonal_shift != 0.0;
  stats.diagonal_shift = entry.diagonal_shift;
  return entry;
}

DirectSolve solve_direct(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc,
                         const FactorSource& source, la::FactorStats& stats) {
  // Without a cache nothing keeps an unlifted copy, so the rhs half reads
  // `a` before the build lifts it; with one, it reads the entry's copy
  // (which a warm caller need not have assembled).
  const bool cached = source.shared_cache() != nullptr;
  if (!cached) apply_dirichlet_rhs(a, rhss, bc);
  DirectSolve direct;
  direct.entry = fetch_factor(a, bc, source, /*keep_unlifted=*/true, stats);
  if (cached) apply_dirichlet_rhs(*direct.entry.matrix, rhss, bc);
  util::WallTimer timer;
  direct.solutions = direct.entry.factor->solve_multi(rhss);
  direct.triangular_seconds = timer.seconds();
  return direct;
}

DofPartition partition_dofs(idx_t num_dofs, const std::vector<idx_t>& bc_dofs) {
  std::vector<char> constrained(num_dofs, 0);
  for (idx_t d : bc_dofs) {
    assert(d >= 0 && d < num_dofs);
    constrained[d] = 1;
  }
  DofPartition part;
  part.free_map.assign(num_dofs, -1);
  part.bc_map.assign(num_dofs, -1);
  for (idx_t d = 0; d < num_dofs; ++d) {
    if (constrained[d]) {
      part.bc_map[d] = part.num_bc++;
    } else {
      part.free_map[d] = part.num_free++;
    }
  }
  return part;
}

}  // namespace ms::fem
