#include "la/sparse.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

namespace ms::la {
namespace {

CsrMatrix small_matrix() {
  // [1 0 2]
  // [0 3 0]
  // [4 0 5]
  TripletList t(3, 3);
  t.add(0, 0, 1.0);
  t.add(0, 2, 2.0);
  t.add(1, 1, 3.0);
  t.add(2, 0, 4.0);
  t.add(2, 2, 5.0);
  return CsrMatrix::from_triplets(t);
}

TEST(CsrMatrix, FromTripletsSortsAndSums) {
  TripletList t(2, 2);
  t.add(0, 1, 1.0);
  t.add(0, 0, 2.0);
  t.add(0, 1, 3.0);  // duplicate, summed
  t.add(1, 1, 4.0);
  const CsrMatrix m = CsrMatrix::from_triplets(t);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.coeff(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.coeff(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 1), 4.0);
  // Columns sorted within the row.
  EXPECT_LT(m.col_idx()[0], m.col_idx()[1]);
}

TEST(CsrMatrix, DropZerosControlsCancelledEntries) {
  TripletList t(1, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, -1.0);
  t.add(0, 1, 2.0);
  EXPECT_EQ(CsrMatrix::from_triplets(t, false).nnz(), 2);
  EXPECT_EQ(CsrMatrix::from_triplets(t, true).nnz(), 1);
}

TEST(CsrMatrix, FromTripletsMatchesMapReferenceOnRandomTriplets) {
  // Seeded random triplets in unsorted order: heavy duplication, explicit
  // zeros, rows that never receive a triplet (r % 5 == 4) and rows whose
  // entries all cancel (r % 5 == 3; the negations arrive last, in reverse).
  // Small-integer values keep every sum exact in any order, so the CSR
  // arrays must equal a std::map accumulation exactly, with drop_zeros off
  // (zeros kept) and on (zeros dropped, cancelled rows end up empty).
  int rows_merged_empty = 0;
  for (unsigned seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    const idx_t rows = 1 + static_cast<idx_t>(rng() % 40);
    const idx_t cols = 1 + static_cast<idx_t>(rng() % 12);
    TripletList t(rows, cols);
    std::map<std::pair<idx_t, idx_t>, double> sums;
    std::vector<std::pair<idx_t, idx_t>> cancel_at;
    std::vector<double> cancel_by;
    const unsigned count = rng() % 400;
    for (unsigned k = 0; k < count; ++k) {
      const idx_t r = static_cast<idx_t>(rng() % static_cast<unsigned>(rows));
      const idx_t c = static_cast<idx_t>(rng() % static_cast<unsigned>(cols));
      const double v = static_cast<double>(static_cast<int>(rng() % 7) - 3);  // -3..3
      if (r % 5 == 4) continue;
      t.add(r, c, v);
      sums[{r, c}] += v;
      if (r % 5 == 3) {
        cancel_at.emplace_back(r, c);
        cancel_by.push_back(-v);
      }
    }
    for (std::size_t k = cancel_at.size(); k-- > 0;) {
      t.add(cancel_at[k].first, cancel_at[k].second, cancel_by[k]);
      sums[cancel_at[k]] += cancel_by[k];
    }

    for (const bool drop_zeros : {false, true}) {
      std::vector<offset_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
      std::vector<idx_t> col_idx;
      std::vector<double> values;
      for (const auto& [at, sum] : sums) {
        if (drop_zeros && sum == 0.0) continue;
        ++row_ptr[static_cast<std::size_t>(at.first) + 1];
        col_idx.push_back(at.second);
        values.push_back(sum);
      }
      for (idx_t r = 0; r < rows; ++r) row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[r];

      const CsrMatrix m = CsrMatrix::from_triplets(t, drop_zeros);
      ASSERT_EQ(m.rows(), rows);
      ASSERT_EQ(m.cols(), cols);
      EXPECT_EQ(m.row_ptr(), row_ptr) << "seed " << seed << ", drop_zeros " << drop_zeros;
      EXPECT_EQ(m.col_idx(), col_idx) << "seed " << seed << ", drop_zeros " << drop_zeros;
      EXPECT_EQ(m.values(), values) << "seed " << seed << ", drop_zeros " << drop_zeros;
      if (drop_zeros) {
        for (const auto& [r, c] : cancel_at) {
          if (m.row_ptr()[r] == m.row_ptr()[static_cast<std::size_t>(r) + 1]) ++rows_merged_empty;
        }
      }
    }
  }
  // The seeds must actually exercise rows that merge down to empty.
  EXPECT_GT(rows_merged_empty, 0);
}

TEST(CsrMatrix, MulMatchesDense) {
  const CsrMatrix m = small_matrix();
  Vec y;
  m.mul({1.0, 2.0, 3.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 19.0);
  m.mul_add(2.0, {1.0, 2.0, 3.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 21.0);
}

TEST(CsrMatrix, DiagonalExtraction) {
  const Vec d = small_matrix().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(CsrMatrix, SymmetryError) {
  EXPECT_DOUBLE_EQ(small_matrix().symmetry_error(), 2.0);  // |2 - 4|
  TripletList t(2, 2);
  t.add(0, 1, 7.0);
  t.add(1, 0, 7.0);
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(t).symmetry_error(), 0.0);
}

TEST(CsrMatrix, SubmatrixExtractsBlocks) {
  const CsrMatrix m = small_matrix();
  // Keep rows {0, 2} and columns {0, 2}.
  const std::vector<idx_t> keep{0, -1, 1};
  const CsrMatrix sub = m.submatrix(keep, 2, keep, 2);
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_DOUBLE_EQ(sub.coeff(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub.coeff(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(sub.coeff(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(sub.coeff(1, 1), 5.0);
}

TEST(CsrMatrix, SubmatrixRectangular) {
  const CsrMatrix m = small_matrix();
  // Rows {1}, all columns.
  const std::vector<idx_t> rows{-1, 0, -1};
  const std::vector<idx_t> cols{0, 1, 2};
  const CsrMatrix sub = m.submatrix(rows, 1, cols, 3);
  EXPECT_EQ(sub.rows(), 1);
  EXPECT_EQ(sub.cols(), 3);
  EXPECT_DOUBLE_EQ(sub.coeff(0, 1), 3.0);
}

TEST(CsrMatrix, FromRawValidates) {
  EXPECT_THROW(CsrMatrix::from_raw(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  const CsrMatrix m = CsrMatrix::from_raw(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0});
  EXPECT_EQ(m.nnz(), 2);
}

TEST(CsrMatrix, MemoryBytesScalesWithNnz) {
  const CsrMatrix m = small_matrix();
  EXPECT_GE(m.memory_bytes(), static_cast<std::size_t>(m.nnz()) * (sizeof(double) + sizeof(idx_t)));
}

}  // namespace
}  // namespace ms::la
