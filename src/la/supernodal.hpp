#pragma once
// Supernodal Cholesky machinery: shared symbolic analysis (elimination tree,
// column counts, postorder), fundamental-supernode detection, a left-looking
// blocked numeric factorization built on register-tiled dense kernels (no
// external BLAS), and multi-RHS triangular panel solves.
//
// Columns with identical below-diagonal structure (fundamental supernodes,
// abundant after an AMD ordering of FEM matrices) are stored as one dense
// column-major panel, so the numeric phase runs as dense rank-k updates —
// cache-friendly and SIMD-friendly — instead of the scalar column-at-a-time
// up-looking loop. SparseCholesky drives this module; it is exposed so tests
// and benches can exercise the pieces directly.

#include <cstddef>
#include <vector>

#include "la/sparse.hpp"

namespace ms::la {

/// Elimination tree of a symmetric CSR matrix (parent per column, -1 at
/// roots), via the ancestor path-compression sweep.
std::vector<idx_t> elimination_tree(const CsrMatrix& a);

/// Pattern of row k of L: nodes on etree paths from the below-diagonal
/// entries of (permuted) row k up to k. Returns the entries in s[top..n-1]
/// in topological order; `mark` is an n-sized stamp array (callers pass a
/// fresh `stamp` per row instead of clearing it). Drives the column counts
/// and the supernodal symbolic phase.
idx_t ereach(const CsrMatrix& a, idx_t k, const std::vector<idx_t>& parent, std::vector<idx_t>& s,
             std::vector<idx_t>& mark, idx_t stamp);

/// Column counts of the Cholesky factor L (diagonal included), via a
/// symbolic row-pattern sweep over the elimination tree.
std::vector<idx_t> cholesky_column_counts(const CsrMatrix& a, const std::vector<idx_t>& parent);

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
};

/// Symbolic phase: detect fundamental supernodes (columns j-1, j merge when
/// parent[j-1] == j and counts[j] == counts[j-1] - 1, capped at `max_width`
/// columns so panels stay register-tile friendly) and collect each
/// supernode's row pattern. Panels are allocated zeroed, ready for the
/// numeric phase.
SupernodalFactor analyze_supernodes(const CsrMatrix& a, const std::vector<idx_t>& parent,
                                    const std::vector<idx_t>& counts, idx_t max_width);

/// Numeric phase: left-looking supernodal factorization of the (permuted)
/// matrix whose symbolic analysis produced `f`. Descendant updates are dense
/// C = B1 * B2^T rank-k products (register-tiled), followed by a fused dense
/// panel factorization. Throws std::runtime_error on a non-positive pivot.
///
/// The work is scheduled in two phases over a deterministic partition of the
/// elimination tree: disjoint light subtrees (target weight = total panel
/// weight / 64, independent of the thread count) factor first — each subtree
/// is a contiguous, descendant-closed supernode range, so its supernodes see
/// only updates that originate inside the range — then the remaining "top"
/// supernodes factor serially, consuming the updates the subtrees deferred
/// in subtree-index order. `parallel` runs phase one under OpenMP
/// (SparseCholesky always sets it; only tests factor serially); because the
/// partition and every per-panel floating-point order are fixed by the
/// matrix alone, the factor is bitwise identical with the flag on or off and
/// for any thread count. When the column order is not etree-postordered the
/// subtree ranges can fail closure; the partition is then discarded and the
/// whole factorization runs as the serial top phase.
void factorize_supernodal(const CsrMatrix& a, SupernodalFactor& f, bool parallel);

/// Triangular solves over a multi-RHS block in *row-major* layout:
/// x[i * nrhs + r] is dof i of case r. The layout keeps the right-hand sides
/// of one dof contiguous, so the innermost per-case loops vectorize and every
/// panel entry of L is loaded once per nrhs cases. Per case, the arithmetic
/// order is identical to the nrhs == 1 call, so batched solves reproduce
/// one-at-a-time solves bitwise.
void supernodal_forward_solve(const SupernodalFactor& f, double* x, idx_t nrhs);
void supernodal_backward_solve(const SupernodalFactor& f, double* x, idx_t nrhs);

/// Register-tiled dense kernel behind the descendant updates (exposed for
/// tests/benches): C(i, j) = sum_t A(i, t) * A(j, t) for i in [0, ni),
/// j in [0, nj), with A column-major (ni x k, leading dimension lda >= ni)
/// and C column-major (ldc >= ni). Only the tiles touching i >= j are
/// computed — callers consume the lower trapezoid.
void syrk_panel_lower(const double* a, idx_t lda, idx_t ni, idx_t nj, idx_t k, double* c,
                      idx_t ldc);

}  // namespace ms::la
