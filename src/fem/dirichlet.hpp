#pragma once
// Dirichlet boundary conditions by elimination, the treatment the paper's
// local stage gives its prescribed boundary (Sec. 4.2): the dofs split into
// free (f) and constrained (c) sets, only the free block K_ff is factored or
// iterated on, each right-hand side enters as f_f − K_fc g (g the prescribed
// values), and the solution carries g in its constrained dofs. The one
// linear-solve stage every solver shares lives here too: solve_linear reads
// the method, and runs either the direct path (factor K_ff once, solve the
// panel — cached across calls or not) or the CG loop on K_ff.

#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "la/factor_cache.hpp"
#include "la/ordering.hpp"
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

/// Partition dofs into free/constrained maps for reduced-system extraction:
/// free_map[dof] = free index or -1; bc_map[dof] = constrained index or -1.
struct DofPartition {
  std::vector<idx_t> free_map;
  std::vector<idx_t> bc_map;
  idx_t num_free = 0;
  idx_t num_bc = 0;
};
DofPartition partition_dofs(idx_t num_dofs, const std::vector<idx_t>& bc_dofs);

/// The free/constrained split of one Dirichlet problem, the only Dirichlet
/// treatment of every solve. Free and constrained indices ascend with the
/// dof. The elimination's solution is the one the symmetric lifting gives
/// (identity rows on the constrained dofs, their columns moved to the rhs):
/// the lifted system's free rows are K_ff x_f = f_f − K_fc g.
class DirichletSplit {
 public:
  /// Partition `num_dofs` dofs by `bc`. A dof constrained twice takes its
  /// last value. Throws std::invalid_argument on a dof out of range.
  DirichletSplit(idx_t num_dofs, const DirichletBc& bc);

  [[nodiscard]] idx_t num_dofs() const { return static_cast<idx_t>(part_.free_map.size()); }
  [[nodiscard]] idx_t num_free() const { return part_.num_free; }
  [[nodiscard]] const DofPartition& partition() const { return part_; }
  /// g: the prescribed values, one per constrained index.
  [[nodiscard]] const Vec& values() const { return values_; }

  /// K_ff: the free rows and columns of the square operator `a`.
  [[nodiscard]] CsrMatrix free_block(const CsrMatrix& a) const;
  /// K_fc: the free rows of `a` restricted to the constrained columns.
  [[nodiscard]] CsrMatrix coupling(const CsrMatrix& a) const;
  /// The order of K_ff that `order`, an order of all dofs, induces: its
  /// free dofs in sequence, renumbered to free indices. Throws
  /// std::invalid_argument unless `order` is a permutation of the dofs.
  [[nodiscard]] la::Permutation free_order(const la::Permutation& order) const;

  /// out = f_f − K_fc g, with `f` one value per dof, `g` one per
  /// constrained dof and `out` num_free values (`coupling` is K_fc).
  void reduce(const CsrMatrix& coupling, const double* f, const double* g, double* out) const;
  /// out = the full vector: x_f on the free dofs, g on the constrained ones.
  void expand(const double* x_f, const double* g, double* out) const;

 private:
  void require_operator(const CsrMatrix& a) const;

  DofPartition part_;
  Vec values_;
};

/// Where a direct solve takes its factor from. With `cache` set and `key`
/// non-empty the factor is shared under the key (which must determine the
/// operator's values and the constrained-dof set; BC values may differ
/// between callers); otherwise it is built for the call alone. `stage`
/// prefixes the build's cancel check and fault probe ("<stage>.factor_build"),
/// the shift-retry site ("<stage>.factor") and solve_linear's metrics
/// ("rom.global", "thermal.steady" or "fem"). `order` is the operator's
/// fill-reducing order over all of its dofs, the nested dissection of the
/// mesh it was assembled on; it is empty for the ROM lattice, whose free
/// block is ordered by AMD.
struct FactorSource {
  la::FactorCache* cache;
  const std::string& key;
  const core::CancelToken& cancel;
  const char* stage;
  la::Permutation order = {};

  /// The cache the factor is shared through, or null when built for the call.
  [[nodiscard]] la::FactorCache* shared_cache() const { return key.empty() ? nullptr : cache; }
};

/// The factor half of a direct solve: the factorization of `split`'s free
/// block of `a` and the coupling K_fc, from the cache (built at most once
/// per key) or built here. The build runs the cancel check and the fault
/// probe, keeps K_fc in the entry, replaces `a` by K_ff and factors it under
/// the source's order restricted to the free dofs, with the shift-retry
/// ladder. On a hit `a` is left as passed, and may be unassembled. `stats`
/// receives the factor detail.
la::FactorCache::Entry fetch_factor(CsrMatrix& a, const DirichletSplit& split,
                                    const FactorSource& source, la::FactorStats& stats);

/// What solve_direct produced and solved with.
struct DirectSolve {
  std::vector<Vec> solutions;       ///< one per right-hand side, in order
  la::FactorCache::Entry entry;
  double triangular_seconds = 0.0;  ///< the panel's forward/backward sweeps
};

/// The one direct-solve path: fetch the factor, reduce every right-hand side
/// against the entry's K_fc, solve the cases as one multi-RHS panel and
/// expand the solutions. Cached or not, warm or cold, the solutions are
/// bit-identical.
DirectSolve solve_direct(CsrMatrix& a, const std::vector<Vec>& rhss, const DirichletSplit& split,
                         const FactorSource& source, la::FactorStats& stats);

/// One linear solve's record, the same for every solver that runs
/// solve_linear; la::FactorStats holds the direct path's factor detail
/// (zero / empty on cg, and 0 factorizations on a cache hit).
struct SolveStats : la::FactorStats {
  idx_t num_dofs = 0;               ///< the full system, constrained dofs included
  double solve_seconds = 0.0;       ///< the whole stage: elimination, factor or CG, solves
  idx_t iterations = 0;             ///< CG iterations over all cases; 0 on the direct path
  bool converged = false;
  idx_t num_rhs = 0;                ///< right-hand sides solved in this call
  std::size_t matrix_bytes = 0;     ///< CSR storage of K_ff (when assembled) and K_fc
  std::size_t solver_bytes = 0;     ///< the factor, or the Krylov workspace + preconditioner
  double triangular_seconds = 0.0;  ///< forward/backward substitutions only
};

/// A solver's method controls, as solve_linear reads them: `method` is
/// "direct" or "cg"; the rest steer cg only, which starts every case at 0.
struct SolveMethod {
  std::string method;
  std::string precond;  ///< "none", "jacobi" or "ssor"
  double rel_tol = 0.0;
  idx_t max_iterations = 0;
};

/// The one linear-solve stage of the ROM global, steady conduction and
/// fine-FEM solvers: solve every case of `rhss` against `a` under `bc`.
///  - "direct": solve_direct through `source` (cached or not, with the
///    shift-retry ladder and the `<stage>.factor_build` probe);
///  - "cg": one preconditioned CG solve of K_ff per case. A breakdown or a
///    stop at max_iterations throws SimError(kDidNotConverge) at
///    "<stage>.solve": no caller receives an unconverged iterate. `source`'s
///    cache is not read.
/// Any other method throws std::invalid_argument. `rhss` is left as passed.
/// On return `a` holds K_ff, the matrix factored or iterated on, unless a
/// cache hit skipped the build. Fills every field of `stats` and records
/// them once, under "<stage>.*" (a failed solve records nothing).
std::vector<Vec> solve_linear(CsrMatrix& a, const std::vector<Vec>& rhss, const DirichletBc& bc,
                              const SolveMethod& how, const FactorSource& source,
                              SolveStats& stats);

/// Whether solve_linear by `method` will take the factor resident in
/// `cache` under `key` without reading the operator, so the caller may
/// leave it unassembled (only the direct path reads a cache).
bool factor_resident(const std::string& method, const la::FactorCache* cache,
                     const std::string& key);

}  // namespace ms::fem
