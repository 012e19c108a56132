#include "fem/solver.hpp"

#include <stdexcept>
#include <utility>

#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/precond.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace ms::fem {

namespace {

/// Mirror the exact out-param values into the registry (regression-locked
/// against the legacy struct by tests/obs).
void publish_fem_stats(const FemSolveStats& s) {
  auto& reg = obs::MetricRegistry::global();
  reg.counter("fem.solves").add(1);
  reg.counter("fem.iterations").add(s.iterations);
  reg.histogram("fem.assemble_seconds").record(s.assemble_seconds);
  reg.histogram("fem.solve_seconds").record(s.solve_seconds);
  reg.histogram("fem.factor_seconds").record(s.factor_seconds);
  reg.gauge("fem.num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge("fem.converged").set(s.converged ? 1.0 : 0.0);
  reg.gauge("fem.factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge("fem.fill_ratio").set(s.fill_ratio);
}

/// Shared tail of every entry point: lift the Dirichlet data into the
/// already-assembled system, solve all load cases against the one operator
/// (direct: one factorization + one multi-RHS panel; cg: loop), and fill the
/// stats record. The single-case wrappers delegate here so both paths stay
/// one implementation.
std::vector<Vec> solve_assembled_cases(AssembledSystem& sys, std::vector<Vec> rhs_cases,
                                       const DirichletBc& bc, const FemSolveOptions& options,
                                       FemSolveStats* stats, util::WallTimer& timer) {
  MS_TRACE_SCOPE("fem.solve");
  apply_dirichlet(sys.stiffness, rhs_cases, bc);
  const double assemble_seconds = timer.seconds();
  FemSolveStats local;

  timer.reset();
  const idx_t num_cases = static_cast<idx_t>(rhs_cases.size());
  std::vector<Vec> solutions(rhs_cases.size());
  idx_t iterations = 0;
  bool converged = false;
  std::size_t solver_bytes = 0;
  if (options.method == "direct") {
    const la::SparseCholesky chol(sys.stiffness);
    const double factor_seconds = timer.seconds();
    solutions = chol.solve_multi(rhs_cases);
    converged = true;
    solver_bytes = chol.memory_bytes();
    local.factor_seconds = factor_seconds;
    local.factor_nnz = chol.factor_nnz();
    local.fill_ratio = chol.fill_ratio();
    local.ordering = chol.ordering_name();
  } else if (options.method == "cg") {
    auto precond = la::make_preconditioner(options.precond, sys.stiffness);
    la::IterativeOptions iter_options;
    iter_options.rel_tol = options.rel_tol;
    iter_options.max_iterations = options.max_iterations;
    converged = true;
    for (idx_t c = 0; c < num_cases; ++c) {
      const la::IterativeResult result = la::conjugate_gradient(
          sys.stiffness, rhs_cases[c], solutions[c], precond.get(), iter_options);
      iterations += result.iterations;
      converged = converged && result.converged;
      if (!result.converged) {
        MS_LOG_WARN("full FEM CG (case %d) did not converge in %d iterations (residual %.3e)",
                    static_cast<int>(c), static_cast<int>(result.iterations),
                    result.residual_norm);
      }
    }
    // Krylov workspace: x, r, z, p, Ap + preconditioner state.
    solver_bytes =
        5 * rhs_cases.front().size() * sizeof(double) + precond->memory_bytes();
  } else {
    throw std::invalid_argument("solve_thermal_stress: unknown method '" + options.method + "'");
  }

  local.num_dofs = sys.num_dofs;
  local.assemble_seconds = assemble_seconds;
  local.solve_seconds = timer.seconds();
  local.iterations = iterations;
  local.converged = converged;
  local.matrix_bytes = sys.stiffness.memory_bytes();
  local.solver_bytes = solver_bytes;
  publish_fem_stats(local);
  if (stats != nullptr) *stats = local;
  return solutions;
}

Vec solve_assembled(AssembledSystem& sys, Vec rhs, const DirichletBc& bc,
                    const FemSolveOptions& options, FemSolveStats* stats, util::WallTimer& timer) {
  std::vector<Vec> rhs_cases;
  rhs_cases.push_back(std::move(rhs));
  return std::move(
      solve_assembled_cases(sys, std::move(rhs_cases), bc, options, stats, timer).front());
}

}  // namespace

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         double thermal_load, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  util::WallTimer timer;
  AssembledSystem sys = assemble_system(mesh, materials);
  Vec rhs = sys.thermal_load;
  la::scale(rhs, thermal_load);
  return solve_assembled(sys, std::move(rhs), bc, options, stats, timer);
}

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         const Vec& delta_t_per_elem, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  util::WallTimer timer;
  AssembledSystem sys = assemble_system(mesh, materials, &delta_t_per_elem);
  Vec rhs = sys.thermal_load;
  return solve_assembled(sys, std::move(rhs), bc, options, stats, timer);
}

std::vector<Vec> solve_thermal_stress_multi(const mesh::HexMesh& mesh,
                                            const MaterialTable& materials,
                                            const std::vector<Vec>& delta_t_cases,
                                            const DirichletBc& bc,
                                            const FemSolveOptions& options, FemSolveStats* stats) {
  if (delta_t_cases.empty()) return {};
  util::WallTimer timer;
  // One stiffness assembly; each case only needs its own load vector.
  AssembledSystem sys = assemble_system(mesh, materials, &delta_t_cases.front());
  std::vector<Vec> rhs_cases;
  rhs_cases.reserve(delta_t_cases.size());
  rhs_cases.push_back(sys.thermal_load);
  for (std::size_t c = 1; c < delta_t_cases.size(); ++c) {
    rhs_cases.push_back(assemble_thermal_load(mesh, materials, delta_t_cases[c]));
  }
  return solve_assembled_cases(sys, std::move(rhs_cases), bc, options, stats, timer);
}

}  // namespace ms::fem
