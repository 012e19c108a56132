#include "rom/global_solver.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/fault_injector.hpp"

namespace ms::rom {

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
  // the assembly). The solve publishes its record as "rom.global.*".
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
  if (stats != nullptr) *stats = local;
  return solutions;
}

Vec solve_global(GlobalProblem& problem, const DirichletBc& bc, const GlobalSolveOptions& options,
                 GlobalSolveStats* stats) {
  std::vector<Vec> solutions = solve_global_multi(problem, {}, bc, options, stats);
  return std::move(solutions.front());
}

}  // namespace ms::rom
