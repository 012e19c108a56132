#include "rom/global_solver.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/sim_error.hpp"

#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/shift_retry.hpp"
#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"
#include "obs/trace.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::rom {
namespace {

// Publish the exact values a GlobalSolveStats out-param receives, so the
// RunReport and the legacy struct can never disagree (the regression-lock
// test in tests/obs asserts this equality).
void publish_global_stats(const GlobalSolveStats& s) {
  auto& reg = obs::MetricRegistry::global();
  reg.counter("rom.global.solves").add(1);
  reg.counter("rom.global.rhs").add(s.num_rhs);
  reg.counter("rom.global.factorizations").add(s.num_factorizations);
  reg.counter("rom.global.iterations").add(s.iterations);
  reg.histogram("rom.global.solve_seconds").record(s.solve_seconds);
  reg.histogram("rom.global.factor_seconds").record(s.factor_seconds);
  reg.histogram("rom.global.triangular_seconds").record(s.triangular_seconds);
  reg.gauge("rom.global.num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge("rom.global.converged").set(s.converged ? 1.0 : 0.0);
  reg.gauge("rom.global.matrix_bytes").set(static_cast<double>(s.matrix_bytes));
  reg.gauge("rom.global.solver_bytes").set(static_cast<double>(s.solver_bytes));
  reg.gauge("rom.global.factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge("rom.global.fill_ratio").set(s.fill_ratio);
  reg.gauge("rom.global.num_supernodes").set(static_cast<double>(s.num_supernodes));
  reg.gauge("rom.global.degraded").set(s.degraded ? 1.0 : 0.0);
  reg.gauge("rom.global.diagonal_shift").set(s.diagonal_shift);
  // Query attribution: publish runs on the worker thread that executed the
  // solve, so the active QueryScope (if any) is the owning scenario's. The
  // per-query counts mirror the registry counters above 1:1 — that identity
  // is what the reconciliation test in tests/sweep locks.
  obs::QueryScope::count("global.solves");
  obs::QueryScope::count("rhs", s.num_rhs);
  obs::QueryScope::count("factorizations", s.num_factorizations);
  obs::QueryScope::observe_seconds("global.solve_seconds", s.solve_seconds);
  obs::QueryScope::observe_seconds("global.factor_seconds", s.factor_seconds);
  obs::QueryScope::observe_seconds("global.triangular_seconds", s.triangular_seconds);
}

}  // namespace

std::vector<Vec> solve_global_multi(GlobalProblem& problem, std::vector<Vec> extra_rhs,
                                    const DirichletBc& bc, const GlobalSolveOptions& options,
                                    GlobalSolveStats* stats) {
  MS_TRACE_SCOPE("rom.global.solve");
  std::vector<Vec> rhs_cases;
  rhs_cases.reserve(extra_rhs.size() + 1);
  rhs_cases.push_back(std::move(problem.rhs));
  for (Vec& rhs : extra_rhs) {
    if (static_cast<idx_t>(rhs.size()) != problem.num_dofs) {
      throw std::invalid_argument("solve_global_multi: rhs size must match the problem");
    }
    rhs_cases.push_back(std::move(rhs));
  }
  const bool use_cache = options.method == "direct" && options.factor_cache != nullptr &&
                         !options.factor_key.empty();
  if (!use_cache) {
    fem::apply_dirichlet(problem.stiffness, rhs_cases, bc);
    problem.rhs = rhs_cases.front();  // keep the lifted primary rhs visible
  }

  util::WallTimer timer;
  const idx_t n = problem.num_dofs;
  const idx_t num_cases = static_cast<idx_t>(rhs_cases.size());
  std::vector<Vec> solutions(rhs_cases.size());
  idx_t iterations = 0;
  bool converged = false;
  std::size_t matrix_bytes = problem.stiffness.memory_bytes();
  std::size_t solver_bytes = 0;
  double factor_seconds = 0.0;
  double triangular_seconds = 0.0;
  GlobalSolveStats local;

  if (use_cache) {
    // Memoized direct path: fetch (or build exactly once, single-flight)
    // the factorization of the lifted operator, lift the right-hand sides
    // against the retained unlifted operator, and run the panel through the
    // thread-safe scratch entry point. Bit-identical to the branch below:
    // the split lifting reproduces the fused one (fem/dirichlet.hpp) and
    // solve_multi_with is the same arithmetic as solve_multi per column.
    bool built = false;
    const la::FactorCache::Entry entry = options.factor_cache->get_or_create(
        options.factor_key,
        [&]() {
          // Cancellation/fault checks live inside the builder on purpose: a
          // cancelled or injected-fault build throws, the cache clears the
          // slot (waiters retry), and no pending slot is ever poisoned.
          options.cancel.check("rom.global.factor_build");
          if (util::FaultInjector::enabled()) {
            util::FaultInjector::global().fire("rom.global.factor_build");
          }
          if (problem.stiffness.rows() != problem.num_dofs) {
            throw std::logic_error(
                "solve_global_multi: factor-cache miss requires an assembled stiffness");
          }
          la::FactorCache::Entry fresh;
          fresh.matrix = std::make_shared<la::CsrMatrix>(problem.stiffness);
          fem::apply_dirichlet_matrix(problem.stiffness, bc);
          la::ShiftRetryResult factored = la::factor_with_shift_retry(
              problem.stiffness, options.factor, options.shift_retry, "rom.global.factor");
          fresh.factor = std::move(factored.factor);
          fresh.diagonal_shift = factored.shift;
          return fresh;
        },
        &built);
    local.degraded = entry.diagonal_shift != 0.0;
    local.diagonal_shift = entry.diagonal_shift;
    factor_seconds = timer.seconds();
    fem::apply_dirichlet_rhs(*entry.matrix, rhs_cases, bc);
    problem.rhs = rhs_cases.front();
    util::WallTimer solve_timer;
    Vec panel(static_cast<std::size_t>(n) * num_cases);
    Vec panel_x(panel.size());
    for (idx_t c = 0; c < num_cases; ++c) {
      std::copy(rhs_cases[c].begin(), rhs_cases[c].end(),
                panel.begin() + static_cast<std::size_t>(c) * n);
    }
    Vec scratch;
    entry.factor->solve_multi_with(panel.data(), panel_x.data(), num_cases, scratch);
    for (idx_t c = 0; c < num_cases; ++c) {
      const auto offset = static_cast<std::size_t>(c) * n;
      solutions[c].assign(panel_x.begin() + offset, panel_x.begin() + offset + n);
    }
    triangular_seconds = solve_timer.seconds();
    converged = true;
    matrix_bytes = entry.matrix->memory_bytes();
    solver_bytes = entry.factor->memory_bytes();
    local.factor_nnz = entry.factor->factor_nnz();
    local.fill_ratio = entry.factor->fill_ratio();
    local.num_supernodes = entry.factor->num_supernodes();
    local.ordering = entry.factor->ordering_name();
    local.num_factorizations = built ? 1 : 0;
  } else if (options.method == "direct") {
    options.cancel.check("rom.global.factor");
    la::ShiftRetryResult factored = la::factor_with_shift_retry(
        problem.stiffness, options.factor, options.shift_retry, "rom.global.factor");
    const la::SparseCholesky& chol = *factored.factor;
    local.degraded = factored.degraded();
    local.diagonal_shift = factored.shift;
    factor_seconds = timer.seconds();
    util::WallTimer solve_timer;
    // One factor sweep for the whole panel.
    solutions = chol.solve_multi(rhs_cases);
    triangular_seconds = solve_timer.seconds();
    converged = true;
    solver_bytes = chol.memory_bytes();
    local.factor_nnz = chol.factor_nnz();
    local.fill_ratio = chol.fill_ratio();
    local.num_supernodes = chol.num_supernodes();
    local.ordering = chol.ordering_name();
    local.num_factorizations = 1;
  } else if (options.method == "cg") {
    auto precond = la::make_preconditioner(options.precond, problem.stiffness);
    la::IterativeOptions iter;
    iter.rel_tol = options.rel_tol;
    iter.max_iterations = options.max_iterations;
    converged = true;
    for (idx_t c = 0; c < num_cases; ++c) {
      const la::IterativeResult result =
          la::conjugate_gradient(problem.stiffness, rhs_cases[c], solutions[c], precond.get(),
                                 iter);
      iterations += result.iterations;
      converged = converged && result.converged;
      if (result.breakdown) {
        throw core::SimError(core::SimErrorCode::kDidNotConverge, "rom.global.solve",
                             std::string("CG breakdown: ") + result.breakdown_reason,
                             "iterations=" + std::to_string(result.iterations) + " residual=" +
                                 std::to_string(result.residual_norm));
      }
    }
    solver_bytes = 5 * static_cast<std::size_t>(n) * sizeof(double) + precond->memory_bytes();
  } else {
    throw std::invalid_argument("solve_global: unknown method '" + options.method + "'");
  }
  if (!converged) {
    MS_LOG_WARN("global solve (%s) did not converge in %d iterations", options.method.c_str(),
                static_cast<int>(iterations));
  }
  // `nan` probe: poison the first solution entry so the stage-boundary
  // health sweep downstream must catch it (tests/robustness).
  if (util::FaultInjector::enabled() && !solutions.empty() && !solutions.front().empty() &&
      util::FaultInjector::global().consume("rom.global.solve") == util::FaultAction::kNan) {
    solutions.front().front() = std::numeric_limits<double>::quiet_NaN();
  }

  local.num_dofs = problem.num_dofs;
  local.num_rhs = num_cases;
  // num_factorizations: set per branch above — 1 on a cold direct solve,
  // 0 on a factor-cache hit and on iterative paths.
  local.solve_seconds = timer.seconds();
  local.factor_seconds = factor_seconds;
  local.triangular_seconds = triangular_seconds;
  local.iterations = iterations;
  local.converged = converged;
  local.matrix_bytes = matrix_bytes;
  local.solver_bytes = solver_bytes;
  publish_global_stats(local);
  if (stats != nullptr) *stats = local;
  return solutions;
}

Vec solve_global(GlobalProblem& problem, const DirichletBc& bc, const GlobalSolveOptions& options,
                 GlobalSolveStats* stats) {
  std::vector<Vec> solutions = solve_global_multi(problem, {}, bc, options, stats);
  return std::move(solutions.front());
}

}  // namespace ms::rom
