#include "fem/solver.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ms::fem {

namespace {

/// Shared tail of every entry point: solve all load cases through the one
/// linear-solve stage (direct: one factorization under the mesh's order + one
/// multi-RHS panel; cg: loop), whose assembler splits the operator assembled
/// on `mesh` by `bc` (the split counts as assembly; the whole matrix is
/// released), and fill the stats record (solve_linear publishes it as
/// "fem.*"; the assembly is ours).
std::vector<Vec> solve_assembled(const mesh::HexMesh& mesh, AssembledSystem& sys,
                                 const std::vector<Vec>& rhs_cases, const DirichletBc& bc,
                                 const FemSolveOptions& options, FemSolveStats* stats,
                                 double assemble_seconds) {
  MS_TRACE_SCOPE("fem.solve");
  util::WallTimer timer;
  const DirichletSplit split(sys.num_dofs, bc);
  assemble_seconds += timer.seconds();  // the partition counts as assembly too
  FemSolveStats local;
  const std::string no_key;
  const core::CancelToken never_cancelled;
  const FactorSource source{nullptr, no_key, never_cancelled, "fem", stiffness_order(mesh)};
  std::vector<Vec> solutions = solve_linear(
      [&] {
        SplitOperator op = split.extract(sys.stiffness);
        sys.stiffness = CsrMatrix();
        return op;
      },
      rhs_cases, split,
      {options.method, options.precond, options.rel_tol, options.max_iterations}, source, local);
  local.assemble_seconds += assemble_seconds;
  obs::observe_seconds("fem.assemble_seconds", local.assemble_seconds);
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
  return std::move(
      solve_assembled(mesh, sys, rhs, bc, options, stats, timer.seconds()).front());
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
  return solve_assembled(mesh, sys, rhs_cases, bc, options, stats, timer.seconds());
}

}  // namespace ms::fem
