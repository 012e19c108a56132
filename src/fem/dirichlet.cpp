#include "fem/dirichlet.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/sim_error.hpp"
#include "la/cg.hpp"
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

namespace {

/// The one reading of a solver's method name.
bool is_direct(const std::string& method) {
  if (method == "direct") return true;
  if (method == "cg") return false;
  throw std::invalid_argument("unknown solve method '" + method + "' (cg or direct)");
}

}  // namespace

bool factor_resident(const std::string& method, const la::FactorCache* cache,
                     const std::string& key) {
  return is_direct(method) && cache != nullptr && !key.empty() && cache->contains(key);
}

std::vector<Vec> solve_linear(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc,
                              const SolveMethod& how, const FactorSource& source,
                              SolveStats& stats) {
  assert(!rhss.empty());
  util::WallTimer timer;
  const std::size_t n = rhss.front().size();
  std::vector<Vec> solutions;
  if (is_direct(how.method)) {
    DirectSolve direct = solve_direct(a, rhss, bc, source, stats);
    solutions = std::move(direct.solutions);
    stats.triangular_seconds = direct.triangular_seconds;
    stats.matrix_bytes =
        (direct.entry.matrix != nullptr ? *direct.entry.matrix : a).memory_bytes();
    stats.solver_bytes = direct.entry.factor->memory_bytes();
  } else {
    apply_dirichlet(a, rhss, bc);
    const auto precond = la::make_preconditioner(how.precond, a);
    la::IterativeOptions iter;
    iter.rel_tol = how.rel_tol;
    iter.max_iterations = how.max_iterations;
    iter.use_initial_guess = true;
    solutions.assign(rhss.size(), Vec(n, how.start));
    for (std::size_t c = 0; c < rhss.size(); ++c) {
      const la::IterativeResult result =
          la::conjugate_gradient(a, rhss[c], solutions[c], precond.get(), iter);
      stats.iterations += result.iterations;
      if (!result.converged) {
        throw core::SimError(core::SimErrorCode::kDidNotConverge,
                             std::string(source.stage) + ".solve",
                             result.breakdown
                                 ? std::string("CG breakdown: ") + result.breakdown_reason
                                 : std::string("CG did not converge"),
                             "iterations=" + std::to_string(result.iterations) +
                                 " residual=" + std::to_string(result.residual_norm));
      }
    }
    stats.matrix_bytes = a.memory_bytes();
    // Krylov workspace: x, r, z, p, Ap + preconditioner state.
    stats.solver_bytes = 5 * n * sizeof(double) + precond->memory_bytes();
  }
  stats.num_dofs = static_cast<idx_t>(n);
  stats.num_rhs = static_cast<idx_t>(rhss.size());
  stats.converged = true;  // an unconverged solve threw above
  stats.solve_seconds = timer.seconds();
  return solutions;
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
