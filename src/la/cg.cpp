#include "la/cg.hpp"

#include <cmath>

namespace ms::la {

IterativeResult conjugate_gradient(const CsrMatrix& a, const Vec& b, Vec& x,
                                   const Preconditioner* precond, const IterativeOptions& options) {
  const std::size_t n = b.size();
  IterativeResult result;
  result.rhs_norm = norm2(b);
  const double target = options.rel_tol * result.rhs_norm;

  if (!options.use_initial_guess || x.size() != n) x.assign(n, 0.0);

  Vec r(n), z(n), p(n), ap(n);
  a.mul(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  double rnorm = norm2(r);
  if (rnorm <= target || result.rhs_norm == 0.0) {
    result.converged = true;
    result.residual_norm = rnorm;
    return result;
  }

  auto apply_m = [&](const Vec& rr, Vec& zz) {
    if (precond != nullptr) {
      precond->apply(rr, zz);
    } else {
      zz = rr;
    }
  };

  apply_m(r, z);
  p = z;
  double rz = dot(r, z);

  for (idx_t it = 1; it <= options.max_iterations; ++it) {
    a.mul(p, ap);
    const double pap = dot(p, ap);
    if (!std::isfinite(pap)) {
      result.breakdown = true;
      result.breakdown_reason = "non-finite curvature p.Ap";
      break;
    }
    if (pap <= 0.0) {
      // Loss of positive definiteness: CG's recurrence is meaningless on an
      // indefinite/singular operator. Structured breakdown, not silent bail.
      result.breakdown = true;
      result.breakdown_reason = "indefinite operator (p.Ap <= 0)";
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    rnorm = norm2(r);
    result.iterations = it;
    if (!std::isfinite(rnorm)) {
      result.breakdown = true;
      result.breakdown_reason = "non-finite residual";
      break;
    }
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    apply_m(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  result.residual_norm = rnorm;
  return result;
}

}  // namespace ms::la
