#pragma once
// Full fine-mesh FEM solver — the ANSYS stand-in (see DESIGN.md Sec. 2).
// Assembles the thermoelastic system on the given mesh, applies Dirichlet
// data by lifting, and solves with preconditioned CG (like the paper's
// "iterative" ANSYS setting) or sparse Cholesky for small problems.

#include <string>
#include <vector>

#include "fem/assembler.hpp"
#include "fem/dirichlet.hpp"
#include "util/timer.hpp"

namespace ms::fem {

struct FemSolveOptions {
  std::string method = "cg";      ///< "cg" or "direct"
  std::string precond = "ssor";   ///< for cg: "none", "jacobi", "ssor"
  double rel_tol = 1e-7;
  idx_t max_iterations = 30000;
};

struct FemSolveStats {
  idx_t num_dofs = 0;
  double assemble_seconds = 0.0;
  double solve_seconds = 0.0;
  idx_t iterations = 0;           ///< 0 for the direct path
  bool converged = false;
  std::size_t matrix_bytes = 0;   ///< CSR storage
  std::size_t solver_bytes = 0;   ///< factor / Krylov workspace estimate
  // Direct-path factorization detail (zero / empty on the cg path):
  double factor_seconds = 0.0;    ///< the one Cholesky factorization
  la::offset_t factor_nnz = 0;    ///< nnz(L), diagonal included
  double fill_ratio = 0.0;        ///< nnz(L) / nnz(tril(A))
  std::string ordering;           ///< fill-reducing ordering ("amd")
  [[nodiscard]] double total_seconds() const { return assemble_seconds + solve_seconds; }
  [[nodiscard]] std::size_t total_bytes() const { return matrix_bytes + solver_bytes; }
};

/// One-call convenience: assemble, lift, solve; returns the full displacement
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
/// system is assembled and lifted once, and on the direct path factored once
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
