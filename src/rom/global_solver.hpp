#pragma once
// Solve the reduced global system (paper Eq. 20). Its free block K_ff is SPD,
// so preconditioned CG is the default and a sparse direct path is the
// alternative. (The paper uses GMRES; on this SPD system CG with the same
// preconditioner converges in about as many iterations at lower cost.)

#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "la/cholesky.hpp"
#include "la/factor_cache.hpp"
#include "rom/global_assembler.hpp"

namespace ms::rom {

struct GlobalSolveOptions {
  std::string method = "cg";      ///< "cg" or "direct"
  std::string precond = "jacobi"; ///< for the iterative paths
  double rel_tol = 1e-9;
  idx_t max_iterations = 20000;
  /// Empty (SparseCholesky has one configuration); kept only because the
  /// benchmark of record (perfbench/src/replay.cpp) passes it to
  /// SparseCholesky's two-argument constructor.
  la::SparseCholesky::Options factor;
  /// Cross-call factorization memoization (direct path only; iterative
  /// paths ignore it). When `factor_cache` is set and `factor_key` is
  /// non-empty, the factorization of the free block K_ff is looked up /
  /// stored under the key together with the coupling K_fc (needed to reduce
  /// the right-hand sides). The key must determine the assembled matrix
  /// values and the constrained-dof *set*; BC values may vary freely between
  /// callers sharing a key (they enter only through K_fc, see
  /// fem/dirichlet.hpp). A hit, or a wait on another caller's build, never
  /// runs the caller's assembler. Warm or cold, the returned solutions are
  /// bit-identical to the uncached path.
  la::FactorCache* factor_cache = nullptr;
  std::string factor_key;
  /// Cooperative cancellation/deadline token, checked at the factorization
  /// boundary (inert by default — no cost for non-sweep callers).
  core::CancelToken cancel;
};

/// One global solve's record (fem/dirichlet.hpp): the factor detail is one
/// factorization per call no matter how many RHS on a cold direct solve, 0
/// on a cache hit and on cg.
using GlobalSolveStats = fem::SolveStats;

/// The global stage's solve: every case of `rhss` against the split
/// operator `assemble` returns (rom::assemble_stiffness under `split`), which
/// the stage runs only when it reads the operator: in the factor build that
/// claims options.factor_key, or on cg. The direct path factors K_ff once,
/// lifts the prescribed values once and runs all cases as one multi-RHS
/// panel; cg loops over them (fem::solve_linear). The direct path recovers
/// an SPD breakdown with the diagonal shift-retry ladder (la/shift_retry.hpp;
/// the stats record the shift as degraded). A CG solve that breaks down or
/// stops at max_iterations throws SimError(kDidNotConverge). Returns one
/// nodal displacement vector per case, the prescribed values in the
/// constrained dofs.
std::vector<Vec> solve_global_split(const fem::AssembleOperator& assemble,
                                    const std::vector<Vec>& rhss,
                                    const fem::DirichletSplit& split,
                                    const GlobalSolveOptions& options,
                                    GlobalSolveStats* stats = nullptr);

/// Whole-lattice form of solve_global_split: its assembler splits
/// problem.stiffness (the assembled lattice; it may be empty when the factor
/// is resident) by `bc`, as a mesh caller does, and leaves a copy of K_ff,
/// the matrix factored or iterated on, in problem.stiffness; then it solves
/// problem.rhs plus every vector of `extra_rhs`. When the stage does not
/// assemble (a resident or awaited factor), problem.stiffness is left as
/// passed; problem.rhs always is. Returns one solution per case — index 0 is
/// problem.rhs, index 1 + k is extra_rhs[k].
std::vector<Vec> solve_global_multi(GlobalProblem& problem, std::vector<Vec> extra_rhs,
                                    const DirichletBc& bc, const GlobalSolveOptions& options = {},
                                    GlobalSolveStats* stats = nullptr);

}  // namespace ms::rom
