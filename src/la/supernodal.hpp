#pragma once
// Supernodal Cholesky machinery: shared symbolic analysis (elimination tree,
// column counts, postorder) over the permuted matrix's pattern alone,
// fundamental-supernode detection, a left-looking blocked numeric
// factorization built on register-tiled dense kernels (no external BLAS),
// and multi-RHS triangular panel solves.
//
// Columns with identical below-diagonal structure (fundamental supernodes,
// abundant after a fill-reducing ordering of FEM matrices) are stored as one dense
// column-major panel, so the numeric phase runs as dense rank-k updates —
// cache-friendly and SIMD-friendly — instead of the scalar column-at-a-time
// up-looking loop. No phase materialises P A P^T's values: the symbolic
// phase reads a values-free lower pattern, and the numeric phase scatters
// A's values straight into the panels through the permutation.
// SparseCholesky drives this module; it is exposed so tests and benches can
// exercise the pieces directly.

#include <cstddef>
#include <vector>

#include "la/ordering.hpp"
#include "la/sparse.hpp"

namespace ms::la {

/// Strictly-lower pattern of a symmetrically permuted matrix, without
/// values: row k lists the columns i < k stored in row k of P A P^T, in A's
/// column order (not sorted). It is all the symbolic phase reads.
struct LowerPattern {
  idx_t n = 0;
  std::vector<offset_t> row_ptr;  ///< size n + 1
  std::vector<idx_t> col_idx;

  [[nodiscard]] offset_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }
};

/// Pattern of tril(P A P^T, -1) for perm[new] = old, built in two O(nnz(A))
/// counting passes over A's column indices (row k reads row perm[k] of A and
/// keeps the columns whose inv_perm is below k). No values, no sort.
LowerPattern lower_pattern(const CsrMatrix& a, const Permutation& p);

/// Elimination tree (parent per column, -1 at roots), via the ancestor
/// path-compression sweep.
std::vector<idx_t> elimination_tree(const LowerPattern& a);

/// Pattern of row k of L: nodes on etree paths from the entries of pattern
/// row k up to k. Returns the entries in s[top..n-1] in topological order;
/// `mark` is an n-sized stamp array (callers pass a fresh `stamp` per row
/// instead of clearing it). Drives the column counts and the supernodal
/// symbolic phase.
idx_t ereach(const LowerPattern& a, idx_t k, const std::vector<idx_t>& parent,
             std::vector<idx_t>& s, std::vector<idx_t>& mark, idx_t stamp);

/// Column counts of the Cholesky factor L (diagonal included), via a
/// symbolic row-pattern sweep over the elimination tree.
std::vector<idx_t> cholesky_column_counts(const LowerPattern& a, const std::vector<idx_t>& parent);

/// Postorder of the elimination tree: post[new] = old column, children
/// visited in ascending order, roots ascending. Reordering columns by the
/// postorder preserves fill and makes supernode columns consecutive.
std::vector<idx_t> etree_postorder(const std::vector<idx_t>& parent);

/// L stored as dense column panels, one per supernode. Supernode s covers
/// columns [super_start[s], super_start[s+1]); its row pattern (rows, sorted
/// ascending, the supernode's own columns first) is shared by every column,
/// and the values form an m x w column-major rectangle with leading
/// dimension m (entries above the intra-panel diagonal are unused zeros).
struct SupernodalFactor {
  idx_t n = 0;
  idx_t num_supernodes = 0;
  std::vector<idx_t> super_start;   ///< size num_supernodes + 1
  std::vector<idx_t> col_super;     ///< column -> supernode
  std::vector<offset_t> row_start;  ///< pattern offsets, size num_supernodes + 1
  std::vector<idx_t> rows;          ///< concatenated row patterns
  std::vector<offset_t> val_start;  ///< panel offsets, size num_supernodes + 1
  std::vector<double> values;       ///< column-major panels

  /// True nonzeros of L (the trapezoid of each panel, diagonal included).
  [[nodiscard]] offset_t factor_nnz() const;

  /// Resident bytes of the factor: value panels (rectangles, padding
  /// included — that is what is actually allocated) plus the pattern and
  /// supernode metadata arrays.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Export L in compressed sparse column form (diagonal first and rows
  /// ascending per column), for tests and diagnostics.
  void extract(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
               std::vector<double>& values) const;
};

/// Symbolic phase: detect fundamental supernodes (columns j-1, j merge when
/// parent[j-1] == j and counts[j] == counts[j-1] - 1, capped at `max_width`
/// columns so panels stay register-tile friendly) and collect each
/// supernode's row pattern. The value panels are sized but not allocated:
/// the numeric phase allocates them, so the caller can release the lower
/// pattern first.
SupernodalFactor analyze_supernodes(const LowerPattern& a, const std::vector<idx_t>& parent,
                                    const std::vector<idx_t>& counts, idx_t max_width);

/// Numeric phase: left-looking supernodal factorization of P A P^T, where
/// `p` and the elimination tree `parent` are the ones the symbolic analysis
/// that produced `f` used. A is read in place: each panel column j scatters
/// row p.perm[j] of A, its columns mapped through p.inv_perm, so no permuted
/// copy of A exists. Descendant updates are dense C = B1 * B2^T rank-k
/// products (register-tiled), followed by a dense panel factorization
/// (diagonal block, then the rows below it). Throws NotPositiveDefiniteError
/// on a non-positive pivot; any other exception (an injected `la.numeric`
/// fault, std::bad_alloc) propagates unchanged, also from inside an OpenMP
/// team.
///
/// The work is scheduled in two phases over a deterministic partition of the
/// elimination tree: disjoint light subtrees (target weight = total panel
/// weight / 64, independent of the thread count) factor first, one subtree
/// per thread — each subtree is a contiguous, descendant-closed supernode
/// range, so its supernodes see only updates that originate inside the
/// range — then the remaining "top" supernodes factor in ascending order,
/// consuming the updates the subtrees deferred in subtree-index order. A top
/// supernode whose pending rank-k work exceeds a fixed fork-cost constant is
/// factored by the whole team, split by panel rows; the rest run on one
/// thread. `parallel` enables both OpenMP phases (SparseCholesky always sets
/// it; only tests factor serially). Because the partition and every
/// per-entry floating-point order are fixed by the matrix alone, the factor
/// is bitwise identical with the flag on or off and for any thread count.
/// When the column order is not etree-postordered the subtree ranges can
/// fail closure; the partition is then discarded and the whole
/// factorization runs as the top phase.
void factorize_supernodal(const CsrMatrix& a, const Permutation& p,
                          const std::vector<idx_t>& parent, SupernodalFactor& f, bool parallel);

/// Triangular solves over a multi-RHS block in *row-major* layout:
/// x[i * nrhs + r] is dof i of case r. The layout keeps the right-hand sides
/// of one dof contiguous, so the innermost per-case loops vectorize and every
/// panel entry of L is loaded once per nrhs cases. Per case, the arithmetic
/// order is identical to the nrhs == 1 call, so batched solves reproduce
/// one-at-a-time solves bitwise.
void supernodal_forward_solve(const SupernodalFactor& f, double* x, idx_t nrhs);
void supernodal_backward_solve(const SupernodalFactor& f, double* x, idx_t nrhs);

/// Register-tiled dense kernel behind the descendant updates (exposed for
/// tests/benches): C(i, j) = sum_t A(i, t) * A(j, t) for rows i in
/// [i_begin, i_end) and j in [0, nj), with A column-major (k columns,
/// leading dimension lda >= max(i_end, nj)) and C column-major, row i at
/// offset i - i_begin (ldc >= i_end - i_begin). Only the tiles touching
/// i >= j are computed — callers consume the lower trapezoid. Each entry is
/// summed over t ascending whatever the range, so a row range reproduces
/// the same rows of the full-range call bitwise.
void syrk_panel_lower(const double* a, idx_t lda, idx_t i_begin, idx_t i_end, idx_t nj, idx_t k,
                      double* c, idx_t ldc);

}  // namespace ms::la
