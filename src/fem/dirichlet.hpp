#pragma once
// Dirichlet boundary conditions by elimination, the treatment the paper's
// local stage gives its prescribed boundary (Sec. 4.2): the dofs split into
// free (f) and constrained (c) sets, only the free block K_ff is factored or
// iterated on, each right-hand side enters as f_f − K_fc g (g the prescribed
// values, the lift K_fc g computed once per solve), and the solution carries
// g in its constrained dofs. The one linear-solve stage every solver shares
// lives here too: solve_linear takes how to assemble the split operator
// {K_ff, K_fc}, reads the method, and runs either the direct path (factor
// K_ff once, solve the panel — cached across calls or not) or the CG loop on
// K_ff, assembling the operator only where it is read.

#include <functional>
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

/// A split's free/constrained maps: free_map[dof] = free index or -1;
/// bc_map[dof] = constrained index or -1.
struct DofPartition {
  std::vector<idx_t> free_map;
  std::vector<idx_t> bc_map;
  idx_t num_free = 0;
  idx_t num_bc = 0;
};

/// An operator split by a DirichletSplit: its free block and the
/// free-by-constrained coupling. Its constrained rows are not kept.
struct SplitOperator {
  CsrMatrix free;      ///< K_ff
  CsrMatrix coupling;  ///< K_fc
};

/// How a solve assembles its split operator. The solve stage calls it only
/// where it reads the operator: in the factor build that claims the key
/// (after its cancel check and fault probe) and on cg, never on a hit or a
/// wait on another caller's build.
using AssembleOperator = std::function<SplitOperator()>;

/// The free/constrained split of one Dirichlet problem, the only Dirichlet
/// treatment of every solve. Free and constrained indices ascend with the
/// dof. The elimination's solution is the one the symmetric lifting gives
/// (identity rows on the constrained dofs, their columns moved to the rhs):
/// the lifted system's free rows are K_ff x_f = f_f − K_fc g.
class DirichletSplit {
 public:
  /// Partition `num_dofs` dofs by `bc`. A dof constrained twice takes its
  /// last value. Throws std::invalid_argument on a dof out of range, or
  /// unless `bc` holds one value per dof.
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
  /// Both blocks of the square operator `a`.
  [[nodiscard]] SplitOperator extract(const CsrMatrix& a) const {
    return {free_block(a), coupling(a)};
  }
  /// Throws std::invalid_argument unless `op` holds a K_ff (num_free square)
  /// and a K_fc (num_free rows, one column per constrained dof) of this split.
  void require_operator(const SplitOperator& op) const;
  /// The order of K_ff that `order`, an order of all dofs, induces: its
  /// free dofs in sequence, renumbered to free indices. Throws
  /// std::invalid_argument unless `order` is a permutation of the dofs.
  [[nodiscard]] la::Permutation free_order(const la::Permutation& order) const;

  /// out = K_fc g, the lift of the prescribed values `g` (one per
  /// constrained dof): num_free values, each its row of `coupling` (K_fc)
  /// summed from zero in stored order. One lift serves every right-hand
  /// side under the same g.
  void lift(const CsrMatrix& coupling, const double* g, double* out) const;
  /// out = f_f − lift, with `f` one value per dof and `lift` (from lift())
  /// and `out` num_free values; `out` may be `lift`.
  void reduce(const double* f, const double* lift, double* out) const;
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

/// The factor half of a direct solve: the factorization of the split
/// operator's K_ff and its coupling K_fc, from the cache (built at most once
/// per key) or built here. The build runs the cancel check and the fault
/// probe, then `assemble` (timed into stats.assemble_seconds), moves the
/// coupling into the entry and factors K_ff under the source's order
/// restricted to the free dofs, with the shift-retry ladder. A hit, or a wait
/// on another caller's build, does not assemble. `stats` receives the factor
/// detail.
la::FactorCache::Entry fetch_factor(const AssembleOperator& assemble, const DirichletSplit& split,
                                    const FactorSource& source, la::FactorStats& stats);

/// One linear solve's record, the same for every solver that runs
/// solve_linear; la::FactorStats holds the operator's assembly and the
/// direct path's factor detail (zero / empty on cg, and 0 factorizations on
/// a cache hit).
struct SolveStats : la::FactorStats {
  idx_t num_dofs = 0;               ///< the full system, constrained dofs included
  /// The whole stage but the operator's assembly: factor or CG, lift,
  /// reductions, solves.
  double solve_seconds = 0.0;
  idx_t iterations = 0;             ///< CG iterations over all cases; 0 on the direct path
  bool converged = false;
  idx_t num_rhs = 0;                ///< right-hand sides solved in this call
  std::size_t matrix_bytes = 0;     ///< CSR storage of K_ff (when this call assembled it) and K_fc
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
/// fine-FEM solvers: solve every case of `rhss` (one value per dof of
/// `split`, else std::invalid_argument) against the split operator that
/// `assemble` returns (its shapes are checked against `split`).
///  - "direct": fetch_factor through `source` (cached or not, with the
///    shift-retry ladder and the `<stage>.factor_build` probe), one lift of
///    the prescribed values through the entry's K_fc, and every case solved
///    as one multi-RHS panel. Cached or not, warm or cold, the solutions are
///    bit-identical.
///  - "cg": assemble, then one preconditioned CG solve of K_ff per case,
///    every case reduced by one lift. A breakdown or a stop at
///    max_iterations throws SimError(kDidNotConverge) at "<stage>.solve": no
///    caller receives an unconverged iterate. `source`'s cache is not read.
/// Any other method throws std::invalid_argument. `rhss` is left as passed.
/// Fills every field of `stats` and records them once, under "<stage>.*" (a
/// failed solve records nothing); the assembly is timed apart, in
/// stats.assemble_seconds, which the solver that owns the record publishes.
std::vector<Vec> solve_linear(const AssembleOperator& assemble, const std::vector<Vec>& rhss,
                              const DirichletSplit& split, const SolveMethod& how,
                              const FactorSource& source, SolveStats& stats);

}  // namespace ms::fem
