#pragma once
// Preconditioned conjugate gradients for SPD systems: the CG path of the
// linear-solve stage (fem::solve_linear) that the reduced global problem
// (paper Sec. 4.3 solves it iteratively), steady conduction and the
// fine-mesh reference FEM solves that stand in for ANSYS share.

#include "la/precond.hpp"
#include "la/sparse.hpp"

namespace ms::la {

struct IterativeOptions {
  double rel_tol = 1e-9;       ///< stop when |r| <= rel_tol * |b|
  idx_t max_iterations = 10000;
  bool use_initial_guess = false;  ///< if set, x is used as the starting point
};

struct IterativeResult {
  bool converged = false;
  idx_t iterations = 0;
  double residual_norm = 0.0;  ///< final true-residual proxy |r|
  double rhs_norm = 0.0;
  /// Set when the recurrence itself broke (indefinite operator, non-finite
  /// residual, stagnation) as opposed to merely running out of iterations.
  bool breakdown = false;
  const char* breakdown_reason = "";
};

/// Solve A x = b with PCG. `precond` may be null (identity).
IterativeResult conjugate_gradient(const CsrMatrix& a, const Vec& b, Vec& x,
                                   const Preconditioner* precond, const IterativeOptions& options);

}  // namespace ms::la
