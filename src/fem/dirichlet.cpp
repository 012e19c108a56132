#include "fem/dirichlet.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/sim_error.hpp"
#include "la/cg.hpp"
#include "la/shift_retry.hpp"
#include "obs/metrics.hpp"
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

DirichletSplit::DirichletSplit(idx_t num_dofs, const DirichletBc& bc) {
  assert(bc.dofs.size() == bc.values.size());
  for (idx_t d : bc.dofs) {
    if (d < 0 || d >= num_dofs) {
      throw std::invalid_argument("DirichletSplit: constrained dof " + std::to_string(d) +
                                  " outside [0, " + std::to_string(num_dofs) + ")");
    }
  }
  part_ = partition_dofs(num_dofs, bc.dofs);
  values_.assign(static_cast<std::size_t>(part_.num_bc), 0.0);
  for (std::size_t k = 0; k < bc.dofs.size(); ++k) values_[part_.bc_map[bc.dofs[k]]] = bc.values[k];
}

void DirichletSplit::require_operator(const CsrMatrix& a) const {
  if (a.rows() != num_dofs() || a.cols() != num_dofs()) {
    throw std::invalid_argument("DirichletSplit: the operator is " + std::to_string(a.rows()) +
                                " x " + std::to_string(a.cols()) + ", the split has " +
                                std::to_string(num_dofs()) + " dofs");
  }
}

CsrMatrix DirichletSplit::free_block(const CsrMatrix& a) const {
  require_operator(a);
  return a.submatrix(part_.free_map, part_.num_free, part_.free_map, part_.num_free);
}

CsrMatrix DirichletSplit::coupling(const CsrMatrix& a) const {
  require_operator(a);
  return a.submatrix(part_.free_map, part_.num_free, part_.bc_map, part_.num_bc);
}

la::Permutation DirichletSplit::free_order(const la::Permutation& order) const {
  if (order.size() != num_dofs() || !order.is_valid()) {
    throw std::invalid_argument("DirichletSplit: the order is not a permutation of the " +
                                std::to_string(num_dofs()) + " dofs");
  }
  la::Permutation out;
  out.perm.reserve(static_cast<std::size_t>(part_.num_free));
  for (const idx_t dof : order.perm) {
    const idx_t r = part_.free_map[dof];
    if (r >= 0) out.perm.push_back(r);
  }
  out.inv_perm.assign(static_cast<std::size_t>(part_.num_free), 0);
  for (idx_t i = 0; i < part_.num_free; ++i) out.inv_perm[out.perm[i]] = i;
  return out;
}

void DirichletSplit::reduce(const CsrMatrix& coupling, const double* f, const double* g,
                            double* out) const {
  assert(coupling.rows() == part_.num_free && coupling.cols() == part_.num_bc);
  const auto& row_ptr = coupling.row_ptr();
  const auto& col = coupling.col_idx();
  const auto& vals = coupling.values();
  const idx_t n = num_dofs();
  for (idx_t d = 0; d < n; ++d) {
    const idx_t r = part_.free_map[d];
    if (r < 0) continue;
    double sum = 0.0;
    const la::offset_t end = row_ptr[static_cast<std::size_t>(r) + 1];
    for (la::offset_t k = row_ptr[r]; k < end; ++k) sum += vals[k] * g[col[k]];
    out[r] = f[d] - sum;
  }
}

void DirichletSplit::expand(const double* x_f, const double* g, double* out) const {
  const idx_t n = num_dofs();
  for (idx_t d = 0; d < n; ++d) {
    const idx_t r = part_.free_map[d];
    out[d] = r >= 0 ? x_f[r] : g[part_.bc_map[d]];
  }
}

la::FactorCache::Entry fetch_factor(CsrMatrix& a, const DirichletSplit& split,
                                    const FactorSource& source, la::FactorStats& stats) {
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
    fresh.coupling = std::make_shared<const CsrMatrix>(split.coupling(a));
    a = split.free_block(a);
    const la::Permutation order =
        source.order.size() == 0 ? la::Permutation{} : split.free_order(source.order);
    la::ShiftRetryResult factored =
        la::factor_with_shift_retry(a, (std::string(source.stage) + ".factor").c_str(), order);
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

DirectSolve solve_direct(CsrMatrix& a, const std::vector<Vec>& rhss, const DirichletSplit& split,
                         const FactorSource& source, la::FactorStats& stats) {
  DirectSolve direct;
  direct.entry = fetch_factor(a, split, source, stats);
  std::vector<Vec> reduced(rhss.size(), Vec(static_cast<std::size_t>(split.num_free())));
  for (std::size_t c = 0; c < rhss.size(); ++c) {
    split.reduce(*direct.entry.coupling, rhss[c].data(), split.values().data(),
                 reduced[c].data());
  }
  util::WallTimer timer;
  const std::vector<Vec> free_x = direct.entry.factor->solve_multi(reduced);
  direct.triangular_seconds = timer.seconds();
  direct.solutions.assign(rhss.size(), Vec(static_cast<std::size_t>(split.num_dofs())));
  for (std::size_t c = 0; c < rhss.size(); ++c) {
    split.expand(free_x[c].data(), split.values().data(), direct.solutions[c].data());
  }
  return direct;
}

namespace {

/// The one reading of a solver's method name.
bool is_direct(const std::string& method) {
  if (method == "direct") return true;
  if (method == "cg") return false;
  throw std::invalid_argument("unknown solve method '" + method + "' (cg or direct)");
}

/// The one publication of a solve record, under `<stage>.*`: its counts and
/// durations through obs::count / obs::observe_seconds (so the query running
/// the solve is charged too), the last solve's sizes and health as gauges.
void publish(const std::string& stage, const SolveStats& s) {
  obs::count(stage + ".solves");
  obs::count(stage + ".rhs", s.num_rhs);
  obs::count(stage + ".factorizations", s.num_factorizations);
  obs::count(stage + ".iterations", s.iterations);
  obs::observe_seconds(stage + ".solve_seconds", s.solve_seconds);
  obs::observe_seconds(stage + ".factor_seconds", s.factor_seconds);
  obs::observe_seconds(stage + ".triangular_seconds", s.triangular_seconds);
  auto& reg = obs::MetricRegistry::global();
  reg.gauge(stage + ".num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge(stage + ".converged").set(s.converged ? 1.0 : 0.0);
  reg.gauge(stage + ".matrix_bytes").set(static_cast<double>(s.matrix_bytes));
  reg.gauge(stage + ".solver_bytes").set(static_cast<double>(s.solver_bytes));
  reg.gauge(stage + ".factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge(stage + ".fill_ratio").set(s.fill_ratio);
  reg.gauge(stage + ".num_supernodes").set(static_cast<double>(s.num_supernodes));
  reg.gauge(stage + ".degraded").set(s.degraded ? 1.0 : 0.0);
  reg.gauge(stage + ".diagonal_shift").set(s.diagonal_shift);
}

}  // namespace

bool factor_resident(const std::string& method, const la::FactorCache* cache,
                     const std::string& key) {
  return is_direct(method) && cache != nullptr && !key.empty() && cache->contains(key);
}

std::vector<Vec> solve_linear(CsrMatrix& a, const std::vector<Vec>& rhss, const DirichletBc& bc,
                              const SolveMethod& how, const FactorSource& source,
                              SolveStats& stats) {
  assert(!rhss.empty());
  util::WallTimer timer;
  const auto n = static_cast<idx_t>(rhss.front().size());
  const DirichletSplit split(n, bc);
  std::vector<Vec> solutions;
  if (is_direct(how.method)) {
    DirectSolve direct = solve_direct(a, rhss, split, source, stats);
    solutions = std::move(direct.solutions);
    stats.triangular_seconds = direct.triangular_seconds;
    stats.matrix_bytes = a.memory_bytes() + direct.entry.coupling->memory_bytes();
    stats.solver_bytes = direct.entry.factor->memory_bytes();
  } else {
    const CsrMatrix coupling = split.coupling(a);
    a = split.free_block(a);
    const auto precond = la::make_preconditioner(how.precond, a);
    la::IterativeOptions iter;
    iter.rel_tol = how.rel_tol;
    iter.max_iterations = how.max_iterations;
    Vec b(static_cast<std::size_t>(split.num_free()));
    Vec x;
    solutions.assign(rhss.size(), Vec(static_cast<std::size_t>(n)));
    for (std::size_t c = 0; c < rhss.size(); ++c) {
      split.reduce(coupling, rhss[c].data(), split.values().data(), b.data());
      const la::IterativeResult result = la::conjugate_gradient(a, b, x, precond.get(), iter);
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
      split.expand(x.data(), split.values().data(), solutions[c].data());
    }
    stats.matrix_bytes = a.memory_bytes() + coupling.memory_bytes();
    // Krylov workspace: x, r, z, p, Ap + preconditioner state.
    stats.solver_bytes = 5 * b.size() * sizeof(double) + precond->memory_bytes();
  }
  stats.num_dofs = n;
  stats.num_rhs = static_cast<idx_t>(rhss.size());
  stats.converged = true;  // an unconverged solve threw above
  stats.solve_seconds = timer.seconds();
  publish(source.stage, stats);
  return solutions;
}

}  // namespace ms::fem
