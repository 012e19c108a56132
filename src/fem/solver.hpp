#pragma once
// Full fine-mesh FEM solver — the ANSYS stand-in (see DESIGN.md Sec. 2).
// Assembles the thermoelastic system on the given mesh and hands it to the
// shared linear-solve stage (fem::solve_linear): Dirichlet dofs eliminated,
// then preconditioned CG on the free block (like the paper's "iterative"
// ANSYS setting) or sparse Cholesky for small problems.

#include <string>
#include <vector>

#include "fem/assembler.hpp"
#include "fem/dirichlet.hpp"

namespace ms::fem {

struct FemSolveOptions {
  std::string method = "cg";      ///< "cg" or "direct"
  std::string precond = "ssor";   ///< for cg: "none", "jacobi", "ssor"
  double rel_tol = 1e-7;
  idx_t max_iterations = 30000;
};

/// Fine-FEM record: the shared solve record (fem/dirichlet.hpp), whose
/// assemble_seconds also counts the system assembled ahead of it.
struct FemSolveStats : SolveStats {
  [[nodiscard]] double total_seconds() const { return assemble_seconds + solve_seconds; }
  [[nodiscard]] std::size_t total_bytes() const { return matrix_bytes + solver_bytes; }
};

/// One-call convenience: assemble, eliminate, solve; returns the full displacement
/// vector (prescribed dofs carry their boundary values).
Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         double thermal_load, const DirichletBc& bc,
                         const FemSolveOptions& options = {}, FemSolveStats* stats = nullptr);

/// Per-element ΔT variant (size num_elems): the brute-force reference for
/// non-uniform thermal loads (a BlockLoadField expanded onto the fine mesh).
Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         const Vec& delta_t_per_elem, const DirichletBc& bc,
                         const FemSolveOptions& options = {}, FemSolveStats* stats = nullptr);

/// Several per-element ΔT load cases on one mesh and boundary set: the
/// system is assembled and reduced once, and on the direct path factored once
/// with every case solved as one multi-RHS panel (the reference-FEM harness
/// uses this to validate transient snapshot histories at one factorization).
/// Returns one displacement vector per case.
std::vector<Vec> solve_thermal_stress_multi(const mesh::HexMesh& mesh,
                                            const MaterialTable& materials,
                                            const std::vector<Vec>& delta_t_cases,
                                            const DirichletBc& bc,
                                            const FemSolveOptions& options = {},
                                            FemSolveStats* stats = nullptr);

}  // namespace ms::fem
