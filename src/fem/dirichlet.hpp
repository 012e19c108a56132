#pragma once
// Dirichlet boundary conditions via the "lifting" procedure the paper uses
// (Sec. 4.2): constrained rows become identity rows with the prescribed
// value on the right-hand side, and the coupling columns are moved to the
// RHS of the free rows so the operator stays symmetric (and SPD). The one
// linear-solve stage every solver shares lives here too: solve_linear reads
// the method, and runs either the direct path (lift, factor once, solve the
// panel — cached across calls or not) or the CG loop.

#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "la/factor_cache.hpp"
#include "la/sparse.hpp"

namespace ms::fem {

using la::CsrMatrix;
using la::idx_t;
using la::Vec;

/// A set of prescribed dofs with values (parallel arrays).
struct DirichletBc {
  std::vector<idx_t> dofs;
  Vec values;

  void add(idx_t dof, double value) {
    dofs.push_back(dof);
    values.push_back(value);
  }
  [[nodiscard]] std::size_t size() const { return dofs.size(); }

  /// Constrain all three components of each node to the given vector value
  /// (vals has 3 entries per node, or empty for homogeneous clamping).
  static DirichletBc clamp_nodes(const std::vector<idx_t>& nodes, const Vec& vals = {});
};

/// Modify A and rhs in place so that A x = rhs enforces x[dof] = value for
/// every constrained dof while keeping A symmetric. Duplicate constraints
/// must agree (last one wins).
void apply_dirichlet(CsrMatrix& a, Vec& rhs, const DirichletBc& bc);

/// Same lifting for one operator shared by several right-hand sides (e.g. a
/// multi-RHS panel solve): A is modified once, and every rhs receives the
/// column correction and the prescribed values. Equivalent to calling the
/// single-rhs overload on copies of A.
void apply_dirichlet(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc);

/// The two halves of the lifting, split so a cached factorization can be
/// reused across calls that differ only in rhs / BC values:
///
///   apply_dirichlet(a, rhs, bc)  ==  apply_dirichlet_rhs(a, rhs, bc)   [unlifted a]
///                                  + apply_dirichlet_matrix(a, bc)
///
/// bit for bit — the fused loop reads each matrix value before zeroing it,
/// so the rhs half against the *unlifted* operator plus the matrix half is
/// the identical sequence of operations. The matrix half depends only on
/// the constrained-dof *set* (values land exclusively in the rhs half),
/// which is why factorization cache keys exclude BC values.
void apply_dirichlet_rhs(const CsrMatrix& a, Vec& rhs, const DirichletBc& bc);
void apply_dirichlet_rhs(const CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc);
void apply_dirichlet_matrix(CsrMatrix& a, const DirichletBc& bc);

/// Where a direct solve takes the factor of its lifted operator from. With
/// `cache` set and `key` non-empty the factor is shared under the key (which
/// must determine the operator's values and the constrained-dof set; BC
/// values may differ between callers); otherwise it is built for the call
/// alone. `stage` prefixes the build's cancel check and fault probe
/// ("<stage>.factor_build") and the shift-retry site ("<stage>.factor").
struct FactorSource {
  la::FactorCache* cache;
  const std::string& key;
  const core::CancelToken& cancel;
  const char* stage;

  /// The cache the factor is shared through, or null when built for the call.
  [[nodiscard]] la::FactorCache* shared_cache() const { return key.empty() ? nullptr : cache; }
};

/// The factor half of a direct solve: the factorization of `a` after the
/// matrix half of `bc`'s lifting, from the cache (built at most once per
/// key) or built here. The build runs the cancel check and the fault probe,
/// lifts `a` in place and factors it with the shift-retry ladder; it copies
/// the unlifted `a` into the entry only for a cache and only when
/// `keep_unlifted` (later hits lift their rhs against that copy). On a hit
/// `a` is left as passed, and may be unassembled. `stats` receives the
/// factor detail.
la::FactorCache::Entry fetch_factor(CsrMatrix& a, const DirichletBc& bc,
                                    const FactorSource& source, bool keep_unlifted,
                                    la::FactorStats& stats);

/// What solve_direct produced and solved with.
struct DirectSolve {
  std::vector<Vec> solutions;       ///< one per right-hand side, in order
  la::FactorCache::Entry entry;     ///< `matrix` is set only with a cache
  double triangular_seconds = 0.0;  ///< the panel's forward/backward sweeps
};

/// The one direct-solve path: lift `rhss` in place against the unlifted
/// operator (`a` itself before the build lifts it, or the cached copy),
/// fetch the factor, and solve every case as one multi-RHS panel. Without a
/// cache `a` is left lifted and no copy of it is made. Cached or not, warm
/// or cold, the solutions are bit-identical.
DirectSolve solve_direct(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc,
                         const FactorSource& source, la::FactorStats& stats);

/// One linear solve's record, the same for every solver that runs
/// solve_linear; la::FactorStats holds the direct path's factor detail
/// (zero / empty on cg, and 0 factorizations on a cache hit).
struct SolveStats : la::FactorStats {
  idx_t num_dofs = 0;
  double solve_seconds = 0.0;       ///< the whole stage: lifting, factor or CG, solves
  idx_t iterations = 0;             ///< CG iterations over all cases; 0 on the direct path
  bool converged = false;
  idx_t num_rhs = 0;                ///< right-hand sides solved in this call
  std::size_t matrix_bytes = 0;     ///< CSR storage of the operator
  std::size_t solver_bytes = 0;     ///< the factor, or the Krylov workspace + preconditioner
  double triangular_seconds = 0.0;  ///< forward/backward substitutions only
};

/// A solver's method controls, as solve_linear reads them: `method` is
/// "direct" or "cg"; the rest steer cg only, which starts every entry of
/// every case at `start`.
struct SolveMethod {
  std::string method;
  std::string precond;  ///< "none", "jacobi" or "ssor"
  double rel_tol = 0.0;
  idx_t max_iterations = 0;
  double start = 0.0;
};

/// The one linear-solve stage of the ROM global, steady conduction and
/// fine-FEM solvers: solve every case of `rhss` against `a` under `bc`.
///  - "direct": solve_direct through `source` (cached or not, with the
///    shift-retry ladder and the `<stage>.factor_build` probe);
///  - "cg": lift `a` and `rhss` in place, then one preconditioned CG solve
///    per case. A breakdown or a stop at max_iterations throws
///    SimError(kDidNotConverge) at "<stage>.solve": no caller receives an
///    unconverged iterate. `source`'s cache is not read.
/// Any other method throws std::invalid_argument. On return `rhss` holds
/// the lifted right-hand sides and `a` is lifted, unless a cache hit
/// skipped the build. Fills every field of `stats`.
std::vector<Vec> solve_linear(CsrMatrix& a, std::vector<Vec>& rhss, const DirichletBc& bc,
                              const SolveMethod& how, const FactorSource& source,
                              SolveStats& stats);

/// Whether solve_linear by `method` will take the factor resident in
/// `cache` under `key` without reading the operator, so the caller may
/// leave it unassembled (only the direct path reads a cache).
bool factor_resident(const std::string& method, const la::FactorCache* cache,
                     const std::string& key);

/// Partition dofs into free/constrained maps for reduced-system extraction:
/// free_map[dof] = free index or -1; bc_map[dof] = constrained index or -1.
struct DofPartition {
  std::vector<idx_t> free_map;
  std::vector<idx_t> bc_map;
  idx_t num_free = 0;
  idx_t num_bc = 0;
};
DofPartition partition_dofs(idx_t num_dofs, const std::vector<idx_t>& bc_dofs);

}  // namespace ms::fem
