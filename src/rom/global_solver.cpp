#include "rom/global_solver.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"
#include "obs/trace.hpp"
#include "util/fault_injector.hpp"

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
  for (Vec& rhs : extra_rhs) rhs_cases.push_back(std::move(rhs));
  for (const Vec& rhs : rhs_cases) {
    if (static_cast<idx_t>(rhs.size()) != problem.num_dofs) {
      throw std::invalid_argument("solve_global_multi: rhs size must match the problem");
    }
  }
  // One factor sweep for the whole panel on the direct path; with a factor
  // cache attached a resident key skips the build (and the caller may skip
  // the assembly).
  const fem::FactorSource source{options.factor_cache, options.factor_key, options.cancel,
                                 "rom.global"};
  GlobalSolveStats local;
  std::vector<Vec> solutions = fem::solve_linear(
      problem.stiffness, rhs_cases, bc,
      {options.method, options.precond, options.rel_tol, options.max_iterations}, source, local);
  // `nan` probe: poison the first solution entry so the stage-boundary
  // health sweep downstream must catch it (tests/robustness).
  if (util::FaultInjector::enabled() && !solutions.front().empty() &&
      util::FaultInjector::global().consume("rom.global.solve") == util::FaultAction::kNan) {
    solutions.front().front() = std::numeric_limits<double>::quiet_NaN();
  }

  problem.rhs = std::move(rhs_cases.front());  // hand the primary rhs back as passed
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
