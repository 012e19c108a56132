// Supernodal factorization against the matrices the production solve paths
// actually factor: the TSV unit-block interior (local stage) and the coarse
// package stiffness (scenario 2). The simplicial up-looking factorization in
// la/cholesky_oracles.hpp is the reference.

#include "la/supernodal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "chiplet/package_model.hpp"
#include "fem/assembler.hpp"
#include "fem/dirichlet.hpp"
#include "la/cholesky.hpp"
#include "la/cholesky_oracles.hpp"
#include "la/errors.hpp"
#include "la/shift_retry.hpp"
#include "mesh/tsv_block.hpp"
#include "obs/metrics.hpp"
#include "util/fault_injector.hpp"
#include "util/team_size_scope.hpp"

namespace ms::la {
namespace {

/// Interior (free-dof) stiffness of a TSV unit block — the matrix the local
/// stage factors once and reuses for the n+1 basis solves.
CsrMatrix tsv_block_matrix() {
  const mesh::TsvGeometry geometry{15.0, 5.0, 0.5, 50.0};
  const mesh::BlockMeshSpec spec{8, 6};
  const mesh::HexMesh block = mesh::build_tsv_block_mesh(geometry, spec);
  const fem::AssembledSystem sys = fem::assemble_system(block, fem::MaterialTable::standard());
  return fem::DirichletSplit(sys.num_dofs, fem::DirichletBc::clamp_nodes(block.boundary_nodes()))
      .free_block(sys.stiffness);
}

/// The bottom-clamped coarse package stiffness — what the scenario-2 direct
/// solve factors (shrunk mesh so the test stays fast; same structure as the
/// production matrix): its free block, and the grid order the solve
/// factors that block under.
struct PackageOperator {
  CsrMatrix free_block;
  Permutation grid_order;
};
PackageOperator package_operator() {
  const chiplet::PackageGeometry geometry = chiplet::demo_package_geometry(15.0, 6, 50.0);
  const chiplet::CoarseMeshSpec spec{10, 10, 2, 2, 2};
  const mesh::HexMesh mesh = chiplet::build_package_coarse_mesh(geometry, spec);
  const fem::AssembledSystem sys = fem::assemble_system(mesh, chiplet::package_materials());
  std::vector<idx_t> bottom;
  for (idx_t id = 0; id < mesh.nodes_x() * mesh.nodes_y(); ++id) bottom.push_back(id);
  const fem::DirichletSplit split(sys.num_dofs, fem::DirichletBc::clamp_nodes(bottom));
  return {split.free_block(sys.stiffness), split.free_order(fem::stiffness_order(mesh))};
}

CsrMatrix package_matrix() { return package_operator().free_block; }

void expect_factors_match(const CsrMatrix& a, double tol) {
  const SparseCholesky sn(a);
  const oracle::SimplicialFactor si = oracle::simplicial_cholesky(a, sn.permutation());
  ASSERT_EQ(sn.factor_nnz(), si.nnz());
  std::vector<offset_t> cp_sn;
  std::vector<idx_t> ri_sn;
  std::vector<double> v_sn;
  sn.extract_factor(cp_sn, ri_sn, v_sn);
  ASSERT_EQ(cp_sn, si.col_ptr);
  ASSERT_EQ(ri_sn, si.row_idx);
  double max_l = 0.0, max_diff = 0.0;
  for (std::size_t k = 0; k < si.values.size(); ++k) {
    max_l = std::max(max_l, std::abs(si.values[k]));
    max_diff = std::max(max_diff, std::abs(v_sn[k] - si.values[k]));
  }
  EXPECT_LT(max_diff / max_l, tol) << "relative factor mismatch";
}

void expect_valid_supernode_partition(const SupernodalFactor& f) {
  ASSERT_GT(f.num_supernodes, 0);
  ASSERT_EQ(f.super_start.front(), 0);
  ASSERT_EQ(f.super_start.back(), f.n);
  for (idx_t s = 0; s < f.num_supernodes; ++s) {
    const idx_t c0 = f.super_start[s];
    const idx_t c1 = f.super_start[static_cast<std::size_t>(s) + 1];
    ASSERT_LT(c0, c1);
    const offset_t m = f.row_start[static_cast<std::size_t>(s) + 1] - f.row_start[s];
    ASSERT_GE(m, c1 - c0);
    // Own columns lead the pattern; the rest ascends strictly.
    for (idx_t j = c0; j < c1; ++j) {
      ASSERT_EQ(f.rows[f.row_start[s] + (j - c0)], j);
      ASSERT_EQ(f.col_super[j], s);
    }
    for (offset_t q = f.row_start[s] + 1; q < f.row_start[static_cast<std::size_t>(s) + 1]; ++q) {
      ASSERT_LT(f.rows[q - 1], f.rows[q]);
    }
  }
}

TEST(Supernodal, TsvBlockFactorMatchesSimplicial) {
  expect_factors_match(tsv_block_matrix(), 1e-12);
}

TEST(Supernodal, PackageFactorMatchesSimplicial) {
  expect_factors_match(package_matrix(), 1e-12);
}

/// Strictly-lower pattern of `a` in its own (natural) ordering.
LowerPattern natural_pattern(const CsrMatrix& a) {
  return lower_pattern(a, Permutation::identity(a.rows()));
}

TEST(Supernodal, PartitionIsValidAndGroupsFemColumns) {
  const LowerPattern pattern = natural_pattern(tsv_block_matrix());
  const std::vector<idx_t> parent = elimination_tree(pattern);
  const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
  const SupernodalFactor f = analyze_supernodes(pattern, parent, counts, 48);
  expect_valid_supernode_partition(f);
  // 3 dofs per node share structure, so panels must actually group columns.
  EXPECT_LT(4 * f.num_supernodes, 3 * f.n);
}

TEST(Supernodal, WidthCapIsHonored) {
  const LowerPattern pattern = natural_pattern(tsv_block_matrix());
  const std::vector<idx_t> parent = elimination_tree(pattern);
  const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
  for (const idx_t cap : {1, 4, 16}) {
    const SupernodalFactor f = analyze_supernodes(pattern, parent, counts, cap);
    expect_valid_supernode_partition(f);
    for (idx_t s = 0; s < f.num_supernodes; ++s) {
      ASSERT_LE(f.super_start[static_cast<std::size_t>(s) + 1] - f.super_start[s], cap);
    }
    if (cap == 1) {
      EXPECT_EQ(f.num_supernodes, f.n);
    }
  }
}

TEST(Supernodal, SolvesProduceTinyResidualsOnProductionMatrices) {
  for (const CsrMatrix& a : {tsv_block_matrix(), package_matrix()}) {
    const idx_t n = a.rows();
    const SparseCholesky chol(a);  // AMD + supernodal default
    Vec b(n);
    for (idx_t i = 0; i < n; ++i) b[i] = std::sin(0.03 * i) + 0.4;
    const Vec x = chol.solve(b);
    Vec ax;
    a.mul(x, ax);
    double scale = 0.0, err = 0.0;
    for (idx_t i = 0; i < n; ++i) {
      scale = std::max(scale, std::abs(b[i]));
      err = std::max(err, std::abs(ax[i] - b[i]));
    }
    EXPECT_LT(err / scale, 1e-9) << "n = " << n;
  }
}

TEST(Supernodal, MultiRhsPanelMatchesSingleSolvesOnBlockMatrix) {
  const CsrMatrix a = tsv_block_matrix();
  const idx_t n = a.rows();
  const idx_t nrhs = 8;
  const SparseCholesky chol(a);
  Vec panel(static_cast<std::size_t>(n) * nrhs);
  for (idx_t r = 0; r < nrhs; ++r) {
    for (idx_t i = 0; i < n; ++i) {
      panel[static_cast<std::size_t>(r) * n + i] = std::sin(0.011 * i * (r + 1));
    }
  }
  Vec x_panel(panel.size()), x, work;
  chol.solve_multi_with(panel.data(), x_panel.data(), nrhs, work);
  for (idx_t r = 0; r < nrhs; ++r) {
    const Vec b(panel.begin() + static_cast<std::size_t>(r) * n,
                panel.begin() + static_cast<std::size_t>(r + 1) * n);
    chol.solve_with(b, x, work);
    for (idx_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_panel[static_cast<std::size_t>(r) * n + i], x[i]) << "rhs " << r;
    }
  }
}

TEST(Supernodal, SyrkKernelMatchesNaiveProduct) {
  const idx_t ni = 13, nj = 6, k = 9, lda = 17, ldc = 15;
  std::vector<double> a(static_cast<std::size_t>(lda) * k);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::sin(0.37 * static_cast<double>(i));
  std::vector<double> c(static_cast<std::size_t>(ldc) * nj, -99.0);
  syrk_panel_lower(a.data(), lda, 0, ni, nj, k, c.data(), ldc);
  for (idx_t j = 0; j < nj; ++j) {
    for (idx_t i = j; i < ni; ++i) {  // the consumed trapezoid
      double ref = 0.0;
      for (idx_t t = 0; t < k; ++t) {
        ref += a[static_cast<std::size_t>(t) * lda + i] * a[static_cast<std::size_t>(t) * lda + j];
      }
      EXPECT_NEAR(c[static_cast<std::size_t>(j) * ldc + i], ref, 1e-13 * (1.0 + std::abs(ref)))
          << "entry (" << i << ", " << j << ")";
    }
  }
  // A row range [i_begin, i_end) reproduces the same rows of the full call
  // bit for bit, also when it starts off the 4-row tile grid, so the top
  // phase's row slices cannot change a factor entry.
  const std::vector<std::pair<idx_t, idx_t>> ranges = {{0, 13}, {0, 3}, {4, 12}, {5, 11},
                                                       {3, 13}, {7, 8}, {10, 13}};
  for (const auto& [i_begin, i_end] : ranges) {
    const idx_t ld = i_end - i_begin;
    std::vector<double> slice(static_cast<std::size_t>(ld) * nj, -77.0);
    syrk_panel_lower(a.data(), lda, i_begin, i_end, nj, k, slice.data(), ld);
    for (idx_t j = 0; j < nj; ++j) {
      for (idx_t i = std::max(i_begin, j); i < i_end; ++i) {
        const double full = c[static_cast<std::size_t>(j) * ldc + i];
        const double part = slice[static_cast<std::size_t>(j) * ld + (i - i_begin)];
        EXPECT_EQ(std::memcmp(&full, &part, sizeof(double)), 0)
            << "rows [" << i_begin << ", " << i_end << "), entry (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(Supernodal, EtreePostorderIsValidPermutation) {
  const CsrMatrix a = package_matrix();
  const std::vector<idx_t> parent = elimination_tree(natural_pattern(a));
  const std::vector<idx_t> post = etree_postorder(parent);
  ASSERT_EQ(post.size(), static_cast<std::size_t>(a.rows()));
  std::vector<char> seen(a.rows(), 0);
  std::vector<idx_t> position(a.rows(), 0);
  for (idx_t i = 0; i < a.rows(); ++i) {
    ASSERT_FALSE(seen[post[i]]);
    seen[post[i]] = 1;
    position[post[i]] = i;
  }
  // Children precede parents.
  for (idx_t v = 0; v < a.rows(); ++v) {
    if (parent[v] != -1) {
      ASSERT_LT(position[v], position[parent[v]]);
    }
  }
}

TEST(Supernodal, ParallelNumericMatchesSerialBitwise) {
  // The phased numeric factorization partitions the elimination tree with a
  // thread-count-independent weight target, so the OpenMP subtree pass must
  // reproduce the serial pass bit for bit on the matrix SparseCholesky
  // factors (AMD + etree postorder, read through the permutation).
  for (const CsrMatrix& a : {tsv_block_matrix(), package_matrix()}) {
    const SparseCholesky chol(a);
    const LowerPattern pattern = lower_pattern(a, chol.permutation());
    const std::vector<idx_t> parent = elimination_tree(pattern);
    const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
    SupernodalFactor serial =
        analyze_supernodes(pattern, parent, counts, SparseCholesky::kMaxSupernodeWidth);
    ASSERT_EQ(serial.num_supernodes, chol.num_supernodes());
    SupernodalFactor parallel = serial;
    factorize_supernodal(a, chol.permutation(), parent, serial, /*parallel=*/false);
    factorize_supernodal(a, chol.permutation(), parent, parallel, /*parallel=*/true);
    ASSERT_EQ(serial.values, parallel.values) << "n = " << a.rows();
  }
}

TEST(Supernodal, PermutedScatterMatchesPermutedCopyBitwise) {
  // SparseCholesky never builds P A P^T: its symbolic phase reads a
  // values-free pattern and its numeric phase scatters A through the
  // permutation. The path it replaced factored an explicit P A P^T copy in
  // natural order. Both must give the same factor bit for bit, with the
  // copy's numeric phase run serial and parallel, and the same statistics.
  for (const CsrMatrix& a : {tsv_block_matrix(), package_matrix()}) {
    const SparseCholesky chol(a);
    std::vector<offset_t> col_ptr;
    std::vector<idx_t> row_idx;
    std::vector<double> values;
    chol.extract_factor(col_ptr, row_idx, values);

    const CsrMatrix pa = oracle::permute_symmetric(a, chol.permutation());
    const Permutation identity = Permutation::identity(pa.rows());
    const LowerPattern pattern = lower_pattern(pa, identity);
    const std::vector<idx_t> parent = elimination_tree(pattern);
    const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
    offset_t lower_nnz = 0;  // nnz(tril(P A P^T)), the fill-ratio base
    for (idx_t r = 0; r < pa.rows(); ++r) {
      for (offset_t q = pa.row_ptr()[r]; q < pa.row_ptr()[static_cast<std::size_t>(r) + 1]; ++q) {
        if (pa.col_idx()[q] <= r) ++lower_nnz;
      }
    }
    for (const bool parallel : {false, true}) {
      SupernodalFactor copy_path =
          analyze_supernodes(pattern, parent, counts, SparseCholesky::kMaxSupernodeWidth);
      factorize_supernodal(pa, identity, parent, copy_path, parallel);
      EXPECT_EQ(copy_path.num_supernodes, chol.num_supernodes());
      EXPECT_EQ(copy_path.factor_nnz(), chol.factor_nnz());
      EXPECT_EQ(static_cast<double>(copy_path.factor_nnz()) / static_cast<double>(lower_nnz),
                chol.fill_ratio());
      std::vector<offset_t> copy_col_ptr;
      std::vector<idx_t> copy_row_idx;
      std::vector<double> copy_values;
      copy_path.extract(copy_col_ptr, copy_row_idx, copy_values);
      ASSERT_EQ(copy_col_ptr, col_ptr) << "n = " << a.rows();
      ASSERT_EQ(copy_row_idx, row_idx) << "n = " << a.rows();
      ASSERT_EQ(copy_values.size(), values.size());
      EXPECT_EQ(std::memcmp(copy_values.data(), values.data(), values.size() * sizeof(double)), 0)
          << "n = " << a.rows() << ", parallel = " << parallel;
    }
  }
}

TEST(Supernodal, ParallelNumericStillThrowsOnIndefiniteMatrix) {
  // Neither OpenMP phase may leak exceptions out of its region; the
  // non-positive-pivot failure must still surface as the usual throw.
  const CsrMatrix a = tsv_block_matrix();
  TripletList t(a.rows(), a.cols());
  for (idx_t r = 0; r < a.rows(); ++r) {
    const offset_t end = a.row_ptr()[static_cast<std::size_t>(r) + 1];
    for (offset_t p = a.row_ptr()[r]; p < end; ++p) {
      const idx_t c = a.col_idx()[p];
      t.add(r, c, r == c ? -a.values()[p] : a.values()[p]);  // flip the diagonal
    }
  }
  const CsrMatrix indefinite = CsrMatrix::from_triplets(t);
  EXPECT_THROW(SparseCholesky{indefinite}, NotPositiveDefiniteError);

  // A late breakdown: only the last pivot, in the top phase's root
  // supernode (row-split at team size 4), fails. AMD reads the pattern
  // alone, so the flipped matrix keeps chol's permutation.
  const CsrMatrix package = package_matrix();
  const SparseCholesky chol(package);
  CsrMatrix late = package;
  const idx_t last = chol.permutation().perm[static_cast<std::size_t>(package.rows()) - 1];
  for (offset_t p = late.row_ptr()[last]; p < late.row_ptr()[static_cast<std::size_t>(last) + 1];
       ++p) {
    if (late.col_idx()[p] == last) late.values()[p] = -late.values()[p];
  }
  for (const int threads : {1, 4}) {
    const testutil::TeamSizeScope team(threads);
    EXPECT_THROW(SparseCholesky{late}, NotPositiveDefiniteError) << "team size " << threads;
  }
}

TEST(Supernodal, RowSplitTopPhaseIsBitwiseAtEveryTeamSize) {
  // The package matrix's top supernodes carry enough pending work to be
  // split by rows across the team. Every team size, uneven splits included,
  // must reproduce the serial factor bit for bit.
  const CsrMatrix a = package_matrix();
  const SparseCholesky chol(a);
  const LowerPattern pattern = lower_pattern(a, chol.permutation());
  const std::vector<idx_t> parent = elimination_tree(pattern);
  const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
  const SupernodalFactor symbolic =
      analyze_supernodes(pattern, parent, counts, SparseCholesky::kMaxSupernodeWidth);
  SupernodalFactor serial = symbolic;
  factorize_supernodal(a, chol.permutation(), parent, serial, /*parallel=*/false);
  for (const int threads : {1, 2, 3, 4}) {
    const testutil::TeamSizeScope team(threads);
    SupernodalFactor split = symbolic;
    factorize_supernodal(a, chol.permutation(), parent, split, /*parallel=*/true);
    ASSERT_EQ(split.values.size(), serial.values.size());
    EXPECT_EQ(std::memcmp(split.values.data(), serial.values.data(),
                          serial.values.size() * sizeof(double)),
              0)
        << "team size " << threads;
  }
}

TEST(Supernodal, GridOrderFactorIsBitwiseAtEveryTeamSize) {
  // Nested dissection gives a balanced elimination tree, which the subtree
  // partition and the row-split top phase cut differently from AMD's. Under
  // the package's grid order too, every team size must reproduce the
  // serial factor bit for bit.
  const PackageOperator op = package_operator();
  const SparseCholesky chol(op.free_block, op.grid_order);
  const LowerPattern pattern = lower_pattern(op.free_block, chol.permutation());
  const std::vector<idx_t> parent = elimination_tree(pattern);
  const std::vector<idx_t> counts = cholesky_column_counts(pattern, parent);
  const SupernodalFactor symbolic =
      analyze_supernodes(pattern, parent, counts, SparseCholesky::kMaxSupernodeWidth);
  SupernodalFactor serial = symbolic;
  factorize_supernodal(op.free_block, chol.permutation(), parent, serial, /*parallel=*/false);
  for (const int threads : {1, 2, 3, 4}) {
    const testutil::TeamSizeScope team(threads);
    SupernodalFactor split = symbolic;
    factorize_supernodal(op.free_block, chol.permutation(), parent, split, /*parallel=*/true);
    ASSERT_EQ(split.values.size(), serial.values.size());
    EXPECT_EQ(std::memcmp(split.values.data(), serial.values.data(),
                          serial.values.size() * sizeof(double)),
              0)
        << "team size " << threads;
  }
}

TEST(Supernodal, NumericFaultSurfacesUnchangedWithoutShiftRetry) {
  // An exception that is not a pivot breakdown (here the injected
  // `la.numeric` fault, first panel) leaves the OpenMP region unchanged,
  // so the shift-retry ladder does not refactor for it.
  const CsrMatrix a = package_matrix();
  obs::Counter& retries =
      obs::MetricRegistry::global().counter("robustness.spd_shift_retries");
  const std::int64_t retries_before = retries.value();
  util::FaultInjector::global().configure("la.numeric:throw:1:1");
  std::string site;
  try {
    (void)factor_with_shift_retry(a, "test.factor");
  } catch (const util::InjectedFault& e) {
    site = e.site();
  }
  EXPECT_EQ(util::FaultInjector::global().fired_count("la.numeric"), 1u);
  util::FaultInjector::global().reset();
  EXPECT_EQ(site, "la.numeric");
  EXPECT_EQ(retries.value(), retries_before);
}

}  // namespace
}  // namespace ms::la
