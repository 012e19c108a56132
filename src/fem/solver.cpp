#include "fem/solver.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

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

/// Shared tail of every entry point: solve all load cases against the
/// assembled operator through the one linear-solve stage (direct: one
/// factorization + one multi-RHS panel; cg: loop), and fill the stats
/// record.
std::vector<Vec> solve_assembled(AssembledSystem& sys, const std::vector<Vec>& rhs_cases,
                                 const DirichletBc& bc, const FemSolveOptions& options,
                                 FemSolveStats* stats, double assemble_seconds) {
  MS_TRACE_SCOPE("fem.solve");
  FemSolveStats local;
  local.assemble_seconds = assemble_seconds;
  const std::string no_key;
  const core::CancelToken never_cancelled;
  const FactorSource source{nullptr, no_key, never_cancelled, "fem"};
  std::vector<Vec> solutions = solve_linear(
      sys.stiffness, rhs_cases, bc,
      {options.method, options.precond, options.rel_tol, options.max_iterations}, source, local);
  publish_fem_stats(local);
  if (stats != nullptr) *stats = local;
  return solutions;
}

}  // namespace

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         double thermal_load, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  util::WallTimer timer;
  AssembledSystem sys = assemble_system(mesh, materials);
  std::vector<Vec> rhs{sys.thermal_load};
  la::scale(rhs.front(), thermal_load);
  return std::move(solve_assembled(sys, rhs, bc, options, stats, timer.seconds()).front());
}

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         const Vec& delta_t_per_elem, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  return std::move(
      solve_thermal_stress_multi(mesh, materials, {delta_t_per_elem}, bc, options, stats)
          .front());
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
  return solve_assembled(sys, rhs_cases, bc, options, stats, timer.seconds());
}

}  // namespace ms::fem
