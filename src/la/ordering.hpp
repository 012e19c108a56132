#pragma once
// Fill-reducing ordering for the sparse Cholesky factorization: approximate
// minimum degree, which produces far less fill than a bandwidth ordering on
// the 3D hex-mesh matrices this repository assembles. Deterministic.

#include <vector>

#include "la/sparse.hpp"

namespace ms::la {

/// Permutation pair: perm[new] = old, inv_perm[old] = new.
struct Permutation {
  std::vector<idx_t> perm;
  std::vector<idx_t> inv_perm;

  [[nodiscard]] idx_t size() const { return static_cast<idx_t>(perm.size()); }

  /// Identity permutation of order n.
  static Permutation identity(idx_t n);

  /// Composition: first apply `this`, then `second` (on the already-permuted
  /// index space). Result maps result.perm[new] = perm[second.perm[new]].
  [[nodiscard]] Permutation then(const Permutation& second) const;
};

/// Approximate minimum degree ordering (Amestoy/Davis/Duff) of a
/// structurally symmetric matrix: quotient-graph elimination with element
/// absorption (aggressive), mass elimination, and indistinguishable-node
/// (supervariable) detection via hashing. External degrees are the AMD upper
/// bound, so each pivot step costs O(|affected lists|) instead of a full
/// set union. Deterministic: ties break towards the lowest node index.
/// On 3D FEM matrices the Cholesky fill is typically several times lower
/// than under RCM.
Permutation amd_ordering(const CsrMatrix& a);

/// Apply: out[new] = in[perm[new]] (gather into permuted ordering).
Vec permute_vector(const Vec& x, const Permutation& p);

/// Inverse apply: out[perm[new]] = in[new].
Vec unpermute_vector(const Vec& x, const Permutation& p);

}  // namespace ms::la
