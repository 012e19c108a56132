#include "la/ordering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "la/cholesky_oracles.hpp"

namespace ms::la {
namespace {

/// 1-D Laplacian with a random symmetric permutation applied — RCM (the
/// bandwidth ordering kept as a test oracle) should recover a small bandwidth.
CsrMatrix shuffled_laplacian(idx_t n, unsigned seed) {
  std::vector<idx_t> shuffle(n);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  unsigned state = seed;
  for (idx_t i = n - 1; i > 0; --i) {
    state = state * 1664525u + 1013904223u;
    std::swap(shuffle[i], shuffle[state % (i + 1)]);
  }
  TripletList t(n, n);
  for (idx_t i = 0; i < n; ++i) {
    t.add(shuffle[i], shuffle[i], 2.0);
    if (i + 1 < n) {
      t.add(shuffle[i], shuffle[i + 1], -1.0);
      t.add(shuffle[i + 1], shuffle[i], -1.0);
    }
  }
  return CsrMatrix::from_triplets(t);
}

TEST(Permutation, IdentityRoundTrip) {
  const Permutation p = Permutation::identity(4);
  const Vec x{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(permute_vector(x, p), x);
  EXPECT_EQ(unpermute_vector(x, p), x);
}

TEST(Permutation, PermuteUnpermuteInverse) {
  const CsrMatrix a = shuffled_laplacian(20, 3);
  const Permutation p = oracle::reverse_cuthill_mckee(a);
  Vec x(20);
  for (idx_t i = 0; i < 20; ++i) x[i] = i * 1.5;
  EXPECT_EQ(unpermute_vector(permute_vector(x, p), p), x);
}

TEST(Rcm, ReducesBandwidthOfShuffledChain) {
  const CsrMatrix a = shuffled_laplacian(60, 17);
  const Permutation p = oracle::reverse_cuthill_mckee(a);
  const CsrMatrix pa = oracle::permute_symmetric(a, p);
  // A path graph has bandwidth 1 under the right ordering; RCM must find it.
  EXPECT_LE(oracle::bandwidth(pa), 2);
  EXPECT_GT(oracle::bandwidth(a), 5);  // the shuffle really did scatter it
}

TEST(Rcm, PermutedMatrixKeepsSpectrumProxy) {
  // Check P A P^T x' = (A x)' for consistency.
  const CsrMatrix a = shuffled_laplacian(30, 5);
  const Permutation p = oracle::reverse_cuthill_mckee(a);
  const CsrMatrix pa = oracle::permute_symmetric(a, p);
  Vec x(30);
  for (idx_t i = 0; i < 30; ++i) x[i] = std::sin(static_cast<double>(i));
  Vec ax, pax;
  a.mul(x, ax);
  pa.mul(permute_vector(x, p), pax);
  EXPECT_LT(max_abs_diff(permute_vector(ax, p), pax), 1e-13);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  TripletList t(4, 4);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 1.0);
  t.add(3, 3, 1.0);
  t.add(0, 1, -0.5);
  t.add(1, 0, -0.5);  // one 2-node component + two isolated nodes
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  const Permutation p = oracle::reverse_cuthill_mckee(a);
  std::vector<bool> seen(4, false);
  for (idx_t i : p.perm) seen[i] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Bandwidth, DiagonalIsZero) {
  TripletList t(3, 3);
  for (idx_t i = 0; i < 3; ++i) t.add(i, i, 1.0);
  EXPECT_EQ(oracle::bandwidth(CsrMatrix::from_triplets(t)), 0);
}

/// 3-D 7-point Laplacian on an m^3 grid — the graph family every solve path
/// in this repository produces (hex meshes), where minimum degree shines.
CsrMatrix laplacian_3d(idx_t m) {
  const idx_t n = m * m * m;
  TripletList t(n, n);
  const auto id = [m](idx_t i, idx_t j, idx_t k) { return (k * m + j) * m + i; };
  for (idx_t k = 0; k < m; ++k) {
    for (idx_t j = 0; j < m; ++j) {
      for (idx_t i = 0; i < m; ++i) {
        const idx_t u = id(i, j, k);
        t.add(u, u, 6.0);
        if (i > 0) t.add(u, id(i - 1, j, k), -1.0);
        if (i + 1 < m) t.add(u, id(i + 1, j, k), -1.0);
        if (j > 0) t.add(u, id(i, j - 1, k), -1.0);
        if (j + 1 < m) t.add(u, id(i, j + 1, k), -1.0);
        if (k > 0) t.add(u, id(i, j, k - 1), -1.0);
        if (k + 1 < m) t.add(u, id(i, j, k + 1), -1.0);
      }
    }
  }
  return CsrMatrix::from_triplets(t);
}

/// nnz(L) of the Cholesky factor under permutation `p` (symbolic only).
offset_t symbolic_factor_nnz(const CsrMatrix& a, const Permutation& p) {
  const CsrMatrix pa = oracle::permute_symmetric(a, p);
  const idx_t n = pa.rows();
  std::vector<idx_t> parent(n, -1), ancestor(n, -1);
  for (idx_t k = 0; k < n; ++k) {
    for (offset_t q = pa.row_ptr()[k]; q < pa.row_ptr()[static_cast<std::size_t>(k) + 1]; ++q) {
      idx_t i = pa.col_idx()[q];
      if (i >= k) break;
      while (i != -1 && i != k) {
        const idx_t next = ancestor[i];
        ancestor[i] = k;
        if (next == -1) parent[i] = k;
        i = next;
      }
    }
  }
  std::vector<idx_t> mark(n, -1);
  offset_t nnz = n;
  for (idx_t k = 0; k < n; ++k) {
    mark[k] = k;
    for (offset_t q = pa.row_ptr()[k]; q < pa.row_ptr()[static_cast<std::size_t>(k) + 1]; ++q) {
      idx_t i = pa.col_idx()[q];
      if (i >= k) break;
      for (; mark[i] != k; i = parent[i]) {
        ++nnz;
        mark[i] = k;
      }
    }
  }
  return nnz;
}

void expect_valid_permutation(const Permutation& p, idx_t n) {
  ASSERT_EQ(p.size(), n);
  std::vector<char> seen(n, 0);
  for (idx_t i = 0; i < n; ++i) {
    const idx_t v = p.perm[i];
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    ASSERT_FALSE(seen[v]) << "index " << v << " appears twice";
    seen[v] = 1;
    ASSERT_EQ(p.inv_perm[v], i);
  }
}

TEST(Amd, ProducesValidPermutations) {
  expect_valid_permutation(amd_ordering(laplacian_3d(2)), 8);
  expect_valid_permutation(amd_ordering(laplacian_3d(6)), 216);
  expect_valid_permutation(amd_ordering(shuffled_laplacian(60, 17)), 60);
}

TEST(Amd, DeterministicAcrossRuns) {
  const CsrMatrix a = laplacian_3d(7);
  const Permutation p1 = amd_ordering(a);
  const Permutation p2 = amd_ordering(a);
  EXPECT_EQ(p1.perm, p2.perm);
  EXPECT_EQ(p1.inv_perm, p2.inv_perm);
}

TEST(Amd, HandlesDisconnectedComponentsAndIsolatedNodes) {
  TripletList t(6, 6);
  for (idx_t i = 0; i < 6; ++i) t.add(i, i, 1.0);
  t.add(0, 1, -0.5);
  t.add(1, 0, -0.5);
  t.add(3, 4, -0.25);
  t.add(4, 3, -0.25);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  expect_valid_permutation(amd_ordering(a), 6);
}

TEST(Amd, BeatsRcmFillOn3dGrids) {
  // The motivating property: on 3-D mesh graphs AMD produces a factor
  // several times sparser than RCM (and the gap widens with size).
  const CsrMatrix a = laplacian_3d(10);
  const offset_t amd_nnz = symbolic_factor_nnz(a, amd_ordering(a));
  const offset_t rcm_nnz = symbolic_factor_nnz(a, oracle::reverse_cuthill_mckee(a));
  EXPECT_LT(static_cast<double>(amd_nnz), 0.75 * static_cast<double>(rcm_nnz));
}

TEST(Amd, NoWorseThanNaturalOnChain) {
  // A path graph has a perfect (no-fill) elimination order; AMD must find
  // one (nnz(L) == 2n - 1) even from a scrambled labeling.
  const CsrMatrix a = shuffled_laplacian(50, 7);
  EXPECT_EQ(symbolic_factor_nnz(a, amd_ordering(a)), 2 * 50 - 1);
}

TEST(Permutation, ThenComposes) {
  const CsrMatrix a = shuffled_laplacian(12, 3);
  const Permutation p = oracle::reverse_cuthill_mckee(a);
  Permutation rev;
  rev.perm.resize(12);
  rev.inv_perm.resize(12);
  for (idx_t i = 0; i < 12; ++i) rev.perm[i] = 11 - i;
  for (idx_t i = 0; i < 12; ++i) rev.inv_perm[rev.perm[i]] = i;
  const Permutation combined = p.then(rev);
  for (idx_t i = 0; i < 12; ++i) EXPECT_EQ(combined.perm[i], p.perm[rev.perm[i]]);
  expect_valid_permutation(combined, 12);
}

}  // namespace
}  // namespace ms::la
