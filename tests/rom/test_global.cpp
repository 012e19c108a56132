#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/sim_error.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"
#include "rom/reconstruct.hpp"
#include "util/team_size_scope.hpp"
#include "util/triplets.hpp"

namespace ms::rom {
namespace {

mesh::TsvGeometry geometry() { return {15.0, 5.0, 0.5, 50.0}; }
mesh::BlockMeshSpec spec() { return {6, 3}; }

const fem::MaterialTable& table() {
  static const fem::MaterialTable t = fem::MaterialTable::standard();
  return t;
}

const RomModel& tsv_model() {
  static const RomModel m = [] {
    LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 10;
    return run_local_stage(geometry(), spec(), table(), BlockKind::Tsv, options);
  }();
  return m;
}

const RomModel& dummy_model() {
  static const RomModel m = [] {
    LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 10;
    return run_local_stage(geometry(), spec(), table(), BlockKind::Dummy, options);
  }();
  return m;
}

BlockGrid make_grid(int bx, int by) { return BlockGrid(bx, by, 3, 3, 3, 15.0, 50.0); }

/// The per-block reconstruction that the batched product replaced, copied
/// verbatim as the bitwise oracle: one add-latency-bound GEMV per block.
namespace per_block_gemv {

/// Shared loop: for each block in range, form the coefficient vector
/// [u_block; thermal_load] and emit rows_per_pt values per sample point into
/// the region-wide y-major output array.
template <typename Emit>
void for_each_block_samples(const BlockGrid& grid, const RomModel& tsv_model,
                            const RomModel* dummy_model, const BlockMask& mask, const Vec& u,
                            const BlockLoadField& load, const BlockRange& range,
                            const Emit& emit) {
  if (range.bx0 < 0 || range.bx1 > grid.blocks_x() || range.by0 < 0 ||
      range.by1 > grid.blocks_y() || range.width() <= 0 || range.height() <= 0) {
    throw std::invalid_argument("reconstruct: block range out of bounds");
  }
  if (!mask.empty() && mask.size() != static_cast<std::size_t>(grid.num_blocks())) {
    throw std::invalid_argument("reconstruct: mask size must be blocks_x*blocks_y");
  }
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
  const idx_t n = tsv_model.num_element_dofs();
  Vec coef(static_cast<std::size_t>(n) + 1);
  for (int by = range.by0; by < range.by1; ++by) {
    for (int bx = range.bx0; bx < range.bx1; ++bx) {
      const bool is_tsv =
          mask.empty() || mask[static_cast<std::size_t>(by) * grid.blocks_x() + bx] != 0;
      const RomModel* model = is_tsv ? &tsv_model : dummy_model;
      if (model == nullptr) {
        throw std::invalid_argument("reconstruct: mask selects dummy blocks but no model");
      }
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      for (idx_t i = 0; i < n; ++i) coef[i] = u[dofs[i]];
      coef[n] = load.at(bx, by);
      emit(*model, bx, by, coef);
    }
  }
}

std::vector<fem::Stress6> reconstruct_plane_stress(const BlockGrid& grid,
                                                   const RomModel& tsv_model,
                                                   const RomModel* dummy_model,
                                                   const BlockMask& mask, const Vec& u,
                                                   const BlockLoadField& load,
                                                   const BlockRange& range) {
  const int s = tsv_model.samples_per_block;
  const std::size_t width = static_cast<std::size_t>(range.width()) * s;
  std::vector<fem::Stress6> out(width * static_cast<std::size_t>(range.height()) * s);

  for_each_block_samples(
      grid, tsv_model, dummy_model, mask, u, load, range,
      [&](const RomModel& model, int bx, int by, const Vec& coef) {
        const la::DenseMatrix& sm = model.stress_samples;
        for (int my = 0; my < s; ++my) {
          for (int mx = 0; mx < s; ++mx) {
            const idx_t pt = static_cast<idx_t>(my) * s + mx;
            const std::size_t gidx =
                (static_cast<std::size_t>(by - range.by0) * s + my) * width +
                static_cast<std::size_t>(bx - range.bx0) * s + mx;
            fem::Stress6& sigma = out[gidx];
            for (int r = 0; r < fem::kVoigt; ++r) {
              const idx_t row = 6 * pt + r;
              double sum = 0.0;
              for (idx_t col = 0; col < sm.cols(); ++col) sum += sm(row, col) * coef[col];
              sigma[r] = sum;
            }
          }
        }
      });
  return out;
}

std::vector<std::array<double, 3>> reconstruct_plane_displacement(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  if (tsv_model.displacement_samples.rows() == 0) {
    throw std::logic_error(
        "reconstruct_plane_displacement: displacement sampling disabled in the local stage");
  }
  const int s = tsv_model.samples_per_block;
  const std::size_t width = static_cast<std::size_t>(range.width()) * s;
  std::vector<std::array<double, 3>> out(width * static_cast<std::size_t>(range.height()) * s);

  for_each_block_samples(
      grid, tsv_model, dummy_model, mask, u, load, range,
      [&](const RomModel& model, int bx, int by, const Vec& coef) {
        const la::DenseMatrix& dm = model.displacement_samples;
        for (int my = 0; my < s; ++my) {
          for (int mx = 0; mx < s; ++mx) {
            const idx_t pt = static_cast<idx_t>(my) * s + mx;
            const std::size_t gidx =
                (static_cast<std::size_t>(by - range.by0) * s + my) * width +
                static_cast<std::size_t>(bx - range.bx0) * s + mx;
            for (int c = 0; c < 3; ++c) {
              const idx_t row = 3 * pt + c;
              double sum = 0.0;
              for (idx_t col = 0; col < dm.cols(); ++col) sum += dm(row, col) * coef[col];
              out[gidx][c] = sum;
            }
          }
        }
      });
  return out;
}

std::vector<std::array<double, 2>> reconstruct_bump_plane_shear(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  if (tsv_model.bump_shear_samples.rows() == 0) {
    throw std::logic_error(
        "reconstruct_bump_plane_shear: model carries no bump-plane samples (rebuild the local "
        "stage)");
  }
  const int s = tsv_model.samples_per_block;
  const std::size_t width = static_cast<std::size_t>(range.width()) * s;
  std::vector<std::array<double, 2>> out(width * static_cast<std::size_t>(range.height()) * s);

  for_each_block_samples(
      grid, tsv_model, dummy_model, mask, u, load, range,
      [&](const RomModel& model, int bx, int by, const Vec& coef) {
        const la::DenseMatrix& bm = model.bump_shear_samples;
        for (int my = 0; my < s; ++my) {
          for (int mx = 0; mx < s; ++mx) {
            const idx_t pt = static_cast<idx_t>(my) * s + mx;
            const std::size_t gidx =
                (static_cast<std::size_t>(by - range.by0) * s + my) * width +
                static_cast<std::size_t>(bx - range.bx0) * s + mx;
            for (int c = 0; c < 2; ++c) {
              const idx_t row = 2 * pt + c;
              double sum = 0.0;
              for (idx_t col = 0; col < bm.cols(); ++col) sum += bm(row, col) * coef[col];
              out[gidx][c] = sum;
            }
          }
        }
      });
  return out;
}

}  // namespace per_block_gemv

/// A model of make_grid's node counts whose sample matrices are seeded
/// random, s x s points per block: all that reconstruction reads.
RomModel random_sample_model(int s, BlockKind kind, unsigned seed) {
  RomModel m;
  m.kind = kind;
  m.nodes_x = m.nodes_y = m.nodes_z = 3;
  m.samples_per_block = s;
  const idx_t nk = m.num_element_dofs() + 1;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const auto fill = [&](int rows_per_point) {
    DenseMatrix d(static_cast<idx_t>(rows_per_point) * s * s, nk);
    for (double& v : d.data()) v = dist(rng);
    return d;
  };
  m.stress_samples = fill(6);
  m.displacement_samples = fill(3);
  m.bump_shear_samples = fill(2);
  return m;
}

Vec random_vec(std::size_t size, double scale, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-scale, scale);
  Vec v(size);
  for (double& x : v) x = dist(rng);
  return v;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A model of make_grid's node counts whose element stiffness (not
/// symmetric) and load are seeded random: all that assembly reads.
RomModel random_element_model(BlockKind kind, unsigned seed) {
  RomModel m;
  m.kind = kind;
  m.nodes_x = m.nodes_y = m.nodes_z = 3;
  const idx_t n = m.num_element_dofs();
  m.element_stiffness = DenseMatrix(n, n);
  m.element_stiffness.data() =
      random_vec(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 1.0, seed);
  m.element_load = random_vec(static_cast<std::size_t>(n), 1.0, seed + 1);
  return m;
}

/// The stiffness as the serial triplet push order (block id, then element
/// row, then element column) gives it: the triplets themselves, and per
/// (row, col) their sum from zero in push order with the number of blocks
/// that contributed.
struct BlockOrderReference {
  testutil::TripletList triplets;
  std::map<std::pair<idx_t, idx_t>, std::pair<double, int>> sums;
};

BlockOrderReference block_order_reference(const BlockGrid& grid, const RomModel& tsv,
                                          const RomModel* dummy, const BlockMask& mask) {
  BlockOrderReference ref{testutil::TripletList(grid.num_dofs(), grid.num_dofs()), {}};
  for (int by = 0; by < grid.blocks_y(); ++by) {
    for (int bx = 0; bx < grid.blocks_x(); ++bx) {
      const bool is_tsv =
          mask.empty() || mask[static_cast<std::size_t>(by) * grid.blocks_x() + bx] != 0;
      const DenseMatrix& k = (is_tsv ? tsv : *dummy).element_stiffness;
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      for (idx_t i = 0; i < k.rows(); ++i) {
        for (idx_t j = 0; j < k.cols(); ++j) {
          ref.triplets.add(dofs[i], dofs[j], k(i, j));
          auto& [sum, blocks] = ref.sums[{dofs[i], dofs[j]}];
          sum += k(i, j);
          ++blocks;
        }
      }
    }
  }
  return ref;
}

TEST(GlobalAssembler, SystemShapeAndSymmetry) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  EXPECT_EQ(problem.num_dofs, grid.num_dofs());
  EXPECT_EQ(problem.stiffness.rows(), grid.num_dofs());
  EXPECT_LT(problem.stiffness.symmetry_error(), 1e-6);
}

TEST(GlobalAssembler, LoadScalesWithThermalLoad) {
  const BlockGrid grid = make_grid(2, 1);
  const GlobalProblem p1 = assemble_global(grid, tsv_model(), nullptr, {}, -100.0);
  const GlobalProblem p2 = assemble_global(grid, tsv_model(), nullptr, {}, -200.0);
  for (std::size_t i = 0; i < p1.rhs.size(); ++i) {
    EXPECT_NEAR(p2.rhs[i], 2.0 * p1.rhs[i], 1e-9);
  }
}

TEST(GlobalAssembler, MaskRequiresDummyModel) {
  const BlockGrid grid = make_grid(2, 2);
  const BlockMask mask{1, 0, 0, 1};
  EXPECT_THROW(assemble_global(grid, tsv_model(), nullptr, mask, -250.0), std::invalid_argument);
  EXPECT_NO_THROW(assemble_global(grid, tsv_model(), &dummy_model(), mask, -250.0));
}

TEST(GlobalAssembler, RejectsBadMaskSize) {
  const BlockGrid grid = make_grid(2, 2);
  EXPECT_THROW(assemble_global(grid, tsv_model(), &dummy_model(), {1, 0}, -250.0),
               std::invalid_argument);
}

TEST(GlobalAssembler, RejectsGridOfOtherNodeCount) {
  // The models have 3x3x3 nodes per block. A grid of fewer nodes per axis
  // used to be read past the end of its blocks' dof lists; one of more, or
  // of another node count along one axis, would put the models' matrices
  // on the wrong nodes.
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  for (const std::array<int, 3> nodes : {std::array{2, 2, 2}, std::array{4, 4, 4},
                                         std::array{3, 3, 4}}) {
    const BlockGrid grid(2, 2, nodes[0], nodes[1], nodes[2], 15.0, 50.0);
    EXPECT_THROW(assemble_global(grid, tsv_model(), nullptr, {}, load), std::invalid_argument);
    EXPECT_THROW(assemble_global_rhs(grid, tsv_model(), nullptr, {}, load),
                 std::invalid_argument);
  }
  // 2x2x14 and 4x4x4 nodes give the same 56 surface nodes, so equal dof
  // counts do not make a grid fit a model.
  RomModel model;
  model.nodes_x = model.nodes_y = model.nodes_z = 4;
  const idx_t n = model.num_element_dofs();
  model.element_stiffness = DenseMatrix(n, n, 1.0);
  model.element_load = Vec(static_cast<std::size_t>(n), 1.0);
  const BlockGrid tall(2, 2, 2, 2, 14, 15.0, 50.0);
  ASSERT_EQ(tall.surface_nodes().num_dofs(), n);
  EXPECT_THROW(assemble_global(tall, model, nullptr, {}, load), std::invalid_argument);
  EXPECT_THROW(assemble_global_rhs(tall, model, nullptr, {}, load), std::invalid_argument);
  EXPECT_NO_THROW(assemble_global(BlockGrid(2, 2, 4, 4, 4, 15.0, 50.0), model, nullptr, {}, load));
}

TEST(GlobalAssembler, RejectsModelWithoutElementMatrices) {
  // A model in use whose element matrices are missing used to be read past
  // their end: the dummy's stiffness was never checked, nor either model's
  // load vector. The dummy is checked only where the mask uses it.
  const BlockGrid grid = make_grid(3, 3);
  const BlockMask ring{0, 0, 0, 0, 1, 0, 0, 0, 0};
  const BlockLoadField load = BlockLoadField::uniform(-250.0);

  RomModel no_stiffness = dummy_model();
  no_stiffness.element_stiffness = DenseMatrix();
  EXPECT_THROW(assemble_global(grid, tsv_model(), &no_stiffness, ring, load),
               std::invalid_argument);
  EXPECT_NO_THROW(assemble_global_rhs(grid, tsv_model(), &no_stiffness, ring, load));
  EXPECT_NO_THROW(assemble_global(grid, tsv_model(), &no_stiffness, {}, load));

  RomModel no_load = dummy_model();
  no_load.element_load.clear();
  EXPECT_THROW(assemble_global(grid, tsv_model(), &no_load, ring, load), std::invalid_argument);
  EXPECT_THROW(assemble_global_rhs(grid, tsv_model(), &no_load, ring, load),
               std::invalid_argument);
  EXPECT_NO_THROW(assemble_global_rhs(grid, tsv_model(), &no_load, {}, load));

  RomModel tsv_no_stiffness = tsv_model();
  tsv_no_stiffness.element_stiffness = DenseMatrix();
  EXPECT_THROW(assemble_global(grid, tsv_no_stiffness, nullptr, {}, load),
               std::invalid_argument);
  RomModel tsv_no_load = tsv_model();
  tsv_no_load.element_load.clear();
  EXPECT_THROW(assemble_global(grid, tsv_no_load, nullptr, {}, load), std::invalid_argument);
  EXPECT_THROW(assemble_global_rhs(grid, tsv_no_load, nullptr, {}, load),
               std::invalid_argument);
}

TEST(GlobalAssembler, OperatorIsExactlySymmetric) {
  // Interior block corners give four-block sums. Entries (i, j) and (j, i)
  // add the same blocks' symmetric element entries in the same block
  // order, so they agree bit for bit, TSV and dummy blocks mixed.
  const BlockGrid grid = make_grid(4, 3);
  const BlockMask mask{1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1};
  const GlobalProblem problem = assemble_global(grid, tsv_model(), &dummy_model(), mask, -250.0);
  EXPECT_EQ(problem.stiffness.symmetry_error(), 0.0);
}

TEST(GlobalAssembler, MatchesBlockOrderReferenceBitwise) {
  // The row-parallel CSR assembly against the serial block-order sums, bit
  // for bit, at team sizes 1-4 (uneven node slices), on one block and on
  // grids with 2 and 12 interior block corners (four-block sums), with and
  // without dummy blocks.
  // Its pattern must be from_triplets' on the same triplets, and so must
  // every value that at most two blocks add: a two-term sum does not
  // depend on the order that from_triplets' sort leaves.
  const RomModel tsv = random_element_model(BlockKind::Tsv, 31);
  const RomModel dummy = random_element_model(BlockKind::Dummy, 37);
  for (const auto& [blocks_x, blocks_y] : {std::pair{1, 1}, std::pair{3, 2}, std::pair{5, 4}}) {
    const BlockGrid grid = make_grid(blocks_x, blocks_y);
    BlockMask mask(static_cast<std::size_t>(grid.num_blocks()));
    for (int b = 0; b < grid.num_blocks(); ++b) mask[static_cast<std::size_t>(b)] = b % 2;
    for (const bool masked : {false, true}) {
      const RomModel* dm = masked ? &dummy : nullptr;
      const BlockMask& mk = masked ? mask : BlockMask{};
      const BlockOrderReference ref = block_order_reference(grid, tsv, dm, mk);
      const CsrMatrix sorted = testutil::from_triplets(ref.triplets);
      std::vector<double> expected;
      for (const auto& entry : ref.sums) expected.push_back(entry.second.first);
      for (const int threads : {1, 2, 3, 4}) {
        const testutil::TeamSizeScope team(threads);
        const std::string where = std::to_string(blocks_x) + "x" + std::to_string(blocks_y) +
                                  (masked ? ", masked" : "") + ", team " +
                                  std::to_string(threads);
        const CsrMatrix a = assemble_global(grid, tsv, dm, mk, -250.0).stiffness;
        EXPECT_TRUE(same_bits(a.values(), expected)) << where;
        ASSERT_EQ(a.row_ptr(), sorted.row_ptr()) << where;
        ASSERT_EQ(a.col_idx(), sorted.col_idx()) << where;
        std::size_t k = 0;
        int mismatches = 0;
        for (const auto& entry : ref.sums) {
          if (entry.second.second <= 2 &&
              std::memcmp(&a.values()[k], &sorted.values()[k], sizeof(double)) != 0) {
            ++mismatches;
          }
          ++k;
        }
        EXPECT_EQ(mismatches, 0) << where;
      }
    }
  }
}

TEST(GlobalAssembler, SplitWriterMatchesExtractedBlocksBitwise) {
  // The writer's K_ff and K_fc against the free block and coupling that
  // DirichletSplit extracts from the whole lattice of serial block-order
  // sums, by memcmp of row pointers, columns and values, at team sizes 1-4.
  // The constraint sets are whole nodes (clamped top and bottom; the outer
  // boundary with non-zero values) and single seeded dofs, so a node may
  // hold free and constrained components.
  const RomModel tsv = random_element_model(BlockKind::Tsv, 41);
  const RomModel dummy = random_element_model(BlockKind::Dummy, 43);
  for (const auto& [blocks_x, blocks_y] : {std::pair{1, 1}, std::pair{3, 2}, std::pair{5, 4}}) {
    const BlockGrid grid = make_grid(blocks_x, blocks_y);
    BlockMask mask(static_cast<std::size_t>(grid.num_blocks()));
    for (int b = 0; b < grid.num_blocks(); ++b) mask[static_cast<std::size_t>(b)] = b % 2;
    fem::DirichletBc singles;
    std::mt19937_64 rng(47);
    for (idx_t d = 0; d < grid.num_dofs(); ++d) {
      if (rng() % 5 == 0) singles.add(d, 1e-3 * static_cast<double>(rng() % 7));
    }
    const std::vector<std::pair<std::string, fem::DirichletBc>> constraint_sets{
        {"clamped", clamp_top_bottom(grid)},
        {"boundary", submodel_boundary(grid,
                                       [](const mesh::Point3& p) {
                                         return std::array<double, 3>{1e-3 * p.x, -2e-3 * p.y,
                                                                      5e-4 * p.z};
                                       })},
        {"singles", singles}};
    for (const bool masked : {false, true}) {
      const RomModel* dm = masked ? &dummy : nullptr;
      const BlockMask& mk = masked ? mask : BlockMask{};
      const BlockOrderReference ref = block_order_reference(grid, tsv, dm, mk);
      const CsrMatrix pattern = testutil::from_triplets(ref.triplets);
      std::vector<double> sums;
      for (const auto& entry : ref.sums) sums.push_back(entry.second.first);
      const CsrMatrix whole = CsrMatrix::from_raw(grid.num_dofs(), grid.num_dofs(),
                                                  pattern.row_ptr(), pattern.col_idx(), sums);
      for (const auto& [set_name, bc] : constraint_sets) {
        const fem::DirichletSplit split(grid.num_dofs(), bc);
        const CsrMatrix k_ff = split.free_block(whole);
        const CsrMatrix k_fc = split.coupling(whole);
        ASSERT_LT(split.num_free(), grid.num_dofs()) << set_name;
        for (const int threads : {1, 2, 3, 4}) {
          const testutil::TeamSizeScope team(threads);
          const std::string where = std::to_string(blocks_x) + "x" + std::to_string(blocks_y) +
                                    (masked ? ", masked, " : ", ") + set_name + ", team " +
                                    std::to_string(threads);
          const fem::SplitOperator op = assemble_stiffness(grid, tsv, dm, mk, split);
          const std::pair<const CsrMatrix*, const CsrMatrix*> blocks[] = {{&op.free, &k_ff},
                                                                           {&op.coupling, &k_fc}};
          for (const auto& [got, want] : blocks) {
            EXPECT_EQ(got->rows(), want->rows()) << where;
            EXPECT_EQ(got->cols(), want->cols()) << where;
            EXPECT_TRUE(same_bits(got->row_ptr(), want->row_ptr())) << where;
            EXPECT_TRUE(same_bits(got->col_idx(), want->col_idx())) << where;
            EXPECT_TRUE(same_bits(got->values(), want->values())) << where;
          }
        }
      }
    }
  }
}

TEST(GlobalSolver, CgDirectAgree) {
  const BlockGrid grid = make_grid(3, 2);
  const fem::DirichletBc bc = clamp_top_bottom(grid);

  GlobalSolveOptions cg;
  cg.method = "cg";
  cg.rel_tol = 1e-12;
  GlobalSolveOptions direct;
  direct.method = "direct";

  GlobalProblem p1 = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalProblem p2 = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u_cg = solve_global_multi(p1, {}, bc, cg).front();
  const Vec u_dir = solve_global_multi(p2, {}, bc, direct).front();

  const double scale = la::norm_inf(u_dir);
  EXPECT_GT(scale, 0.0);
  EXPECT_LT(la::max_abs_diff(u_cg, u_dir), 1e-6 * scale);
}

TEST(GlobalSolver, ClampedDofsStayZero) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const fem::DirichletBc bc = clamp_top_bottom(grid);
  GlobalSolveStats stats;
  const Vec u = solve_global_multi(problem, {}, bc, {}, &stats).front();
  EXPECT_TRUE(stats.converged);
  for (idx_t node : grid.nodes_top_bottom()) {
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(u[3 * node + c], 0.0, 1e-12);
  }
  // Mid-height nodes move (Poisson pinch of the clamped array).
  double max_mid = 0.0;
  for (idx_t d = 0; d < grid.num_dofs(); ++d) max_mid = std::max(max_mid, std::fabs(u[d]));
  EXPECT_GT(max_mid, 1e-4);
}

TEST(GlobalSolver, CgAtIterationCapThrowsDidNotConverge) {
  // Stopping at max_iterations without a breakdown is a failed solve, not a
  // result: the caller must not receive the unconverged iterate.
  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalSolveOptions options;
  options.method = "cg";
  options.max_iterations = 2;
  try {
    (void)solve_global_multi(problem, {}, clamp_top_bottom(grid), options);
    FAIL() << "expected SimError(kDidNotConverge)";
  } catch (const core::SimError& e) {
    EXPECT_EQ(e.code(), core::SimErrorCode::kDidNotConverge);
    EXPECT_EQ(e.stage(), "rom.global.solve");
    EXPECT_NE(e.context().find("iterations=2"), std::string::npos) << e.context();
    EXPECT_NE(e.context().find("residual="), std::string::npos) << e.context();
  }
}

TEST(GlobalSolver, RejectsRhsOfOtherSize) {
  // The elimination reads one rhs entry per operator row; a short primary
  // rhs used to be caught only by an assert, which release builds compile
  // out.
  const BlockGrid grid = make_grid(2, 2);
  for (const char* method : {"cg", "direct"}) {
    GlobalSolveOptions options;
    options.method = method;
    GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
    problem.rhs.resize(problem.rhs.size() / 2);
    EXPECT_THROW((void)solve_global_multi(problem, {}, clamp_top_bottom(grid), options),
                 std::invalid_argument)
        << method;
    GlobalProblem extra = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
    EXPECT_THROW((void)solve_global_multi(extra, {Vec(3, 0.0)}, clamp_top_bottom(grid), options),
                 std::invalid_argument)
        << method;
  }
}

TEST(GlobalSolver, SubmodelBoundaryInterpolatesCallback) {
  const BlockGrid grid = make_grid(2, 1);
  // Linear displacement field: u = (ax, by, cz).
  const auto field = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-3 * p.x, -2e-3 * p.y, 5e-4 * p.z};
  };
  const std::function<std::array<double, 3>(const mesh::Point3&)> fn = field;
  const fem::DirichletBc bc = submodel_boundary(grid, fn);
  EXPECT_EQ(bc.size(), 3 * grid.nodes_outer_boundary().size());
  // Spot-check values.
  const auto nodes = grid.nodes_outer_boundary();
  for (std::size_t i = 0; i < nodes.size(); i += 7) {
    const mesh::Point3 p = grid.node_position(nodes[i]);
    EXPECT_DOUBLE_EQ(bc.values[3 * i], 1e-3 * p.x);
    EXPECT_DOUBLE_EQ(bc.values[3 * i + 1], -2e-3 * p.y);
  }
}

TEST(GlobalSolver, DirectPanelIsBitIdenticalWithoutCacheColdAndWarm) {
  // The one direct-solve path: a call without a cache, a cold cache, and a
  // warm cache whose caller leaves the operator unassembled solve the same
  // 3-case panel bit for bit from the same factor. Non-zero boundary values
  // make the coupling term f_f − K_fc g non-trivial, and a warm hit under a
  // second boundary field (the path warm sub-model hits take) must equal
  // that field's own uncached solve.
  const BlockGrid grid = make_grid(3, 2);
  const auto boundary = [&](double sx, double sy, double sz) {
    return submodel_boundary(grid, [=](const mesh::Point3& p) {
      return std::array<double, 3>{sx * p.x, sy * p.y, sz * p.z};
    });
  };
  const fem::DirichletBc bc = boundary(1e-3, -2e-3, 5e-4);
  const fem::DirichletBc other_bc = boundary(-4e-4, 7e-4, 3e-3);
  const BlockLoadField hot(3, 2, Vec{-250.0, -200.0, -150.0, -120.0, -90.0, -60.0});
  const auto extra_rhs = [&] {
    return std::vector<Vec>{
        assemble_global_rhs(grid, tsv_model(), nullptr, {}, hot),
        assemble_global_rhs(grid, tsv_model(), nullptr, {}, BlockLoadField::uniform(-100.0))};
  };
  GlobalSolveOptions options;
  options.method = "direct";

  const GlobalProblem assembled = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  GlobalProblem plain = assembled;
  GlobalSolveStats plain_stats;
  const std::vector<Vec> expected =
      solve_global_multi(plain, extra_rhs(), bc, options, &plain_stats);
  ASSERT_EQ(expected.size(), 3u);
  // Without a cache the caller's operator is left holding the free block
  // K_ff it factored (the benchmark's replay factors it again to count
  // flops), and the primary rhs is handed back as passed.
  const fem::DirichletSplit split(assembled.num_dofs, bc);
  const fem::DofPartition& part = split.partition();
  const la::CsrMatrix k_ff =
      assembled.stiffness.submatrix(part.free_map, part.num_free, part.free_map, part.num_free);
  EXPECT_EQ(plain.stiffness.rows(), k_ff.rows());
  EXPECT_EQ(plain.stiffness.cols(), k_ff.cols());
  EXPECT_EQ(plain.stiffness.row_ptr(), k_ff.row_ptr());
  EXPECT_EQ(plain.stiffness.col_idx(), k_ff.col_idx());
  EXPECT_EQ(plain.stiffness.values(), k_ff.values());
  EXPECT_EQ(plain.rhs, assembled.rhs);
  GlobalProblem other_plain = assembled;
  const std::vector<Vec> other_expected =
      solve_global_multi(other_plain, extra_rhs(), other_bc, options);

  la::FactorCache cache;
  options.factor_cache = &cache;
  options.factor_key = "global";
  GlobalProblem cold = assembled;
  GlobalSolveStats cold_stats;
  const std::vector<Vec> cold_x = solve_global_multi(cold, extra_rhs(), bc, options, &cold_stats);
  const auto warm_problem = [&] {  // resident key: the load vectors only
    GlobalProblem warm;
    warm.num_dofs = grid.num_dofs();
    warm.rhs = assembled.rhs;
    return warm;
  };
  GlobalProblem warm = warm_problem();
  GlobalSolveStats warm_stats;
  const std::vector<Vec> warm_x = solve_global_multi(warm, extra_rhs(), bc, options, &warm_stats);
  GlobalProblem other_warm = warm_problem();
  GlobalSolveStats other_stats;
  const std::vector<Vec> other_x =
      solve_global_multi(other_warm, extra_rhs(), other_bc, options, &other_stats);

  EXPECT_EQ(cold_x, expected);
  EXPECT_EQ(warm_x, expected);
  EXPECT_EQ(other_x, other_expected);
  EXPECT_NE(other_x, expected);
  for (const GlobalSolveStats* s : {&cold_stats, &warm_stats, &other_stats}) {
    EXPECT_EQ(s->factor_nnz, plain_stats.factor_nnz);
    EXPECT_EQ(s->fill_ratio, plain_stats.fill_ratio);
    EXPECT_EQ(s->num_supernodes, plain_stats.num_supernodes);
    EXPECT_EQ(s->ordering, plain_stats.ordering);
    EXPECT_EQ(s->num_dofs, assembled.num_dofs);
  }
  EXPECT_GT(plain_stats.factor_nnz, 0);
  EXPECT_EQ(plain_stats.num_factorizations, 1);
  EXPECT_EQ(cold_stats.num_factorizations, 1);
  EXPECT_EQ(warm_stats.num_factorizations, 0);
  EXPECT_EQ(other_stats.num_factorizations, 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(Reconstruct, RegionShapesAndSubregion) {
  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u = solve_global_multi(problem, {}, clamp_top_bottom(grid), {}).front();
  const int s = tsv_model().samples_per_block;

  const auto full = reconstruct_plane_von_mises(grid, tsv_model(), nullptr, {}, u, -250.0,
                                                BlockRange::all(grid));
  EXPECT_EQ(full.size(), static_cast<std::size_t>(9) * s * s);

  BlockRange inner{1, 2, 1, 2};
  const auto centre = reconstruct_plane_von_mises(grid, tsv_model(), nullptr, {}, u, -250.0, inner);
  EXPECT_EQ(centre.size(), static_cast<std::size_t>(s) * s);

  // The inner block of the full field equals the subregion reconstruction.
  for (int my = 0; my < s; ++my) {
    for (int mx = 0; mx < s; ++mx) {
      const std::size_t full_idx = (static_cast<std::size_t>(s) + my) * (3 * s) + s + mx;
      EXPECT_NEAR(centre[static_cast<std::size_t>(my) * s + mx], full[full_idx], 1e-12);
    }
  }
}

TEST(Reconstruct, FourFoldSymmetryOfCentredArray) {
  // A centred 3x3 array under uniform load must produce a stress field with
  // the symmetry of the square (sample the centre block). Use a sample count
  // whose cell centres avoid element faces: stress is discontinuous across
  // faces and locate() tie-breaks to the +x element, which would make
  // mirrored samples land in different elements.
  LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = 3;
  options.samples_per_block = 8;
  const RomModel model = run_local_stage(geometry(), spec(), table(), BlockKind::Tsv, options);

  const BlockGrid grid = make_grid(3, 3);
  GlobalProblem problem = assemble_global(grid, model, nullptr, {}, -250.0);
  const Vec u = solve_global_multi(problem, {}, clamp_top_bottom(grid), {}).front();
  const int s = model.samples_per_block;
  BlockRange inner{1, 2, 1, 2};
  const auto vm = reconstruct_plane_von_mises(grid, model, nullptr, {}, u, -250.0, inner);
  double max_v = 0.0;
  for (double v : vm) max_v = std::max(max_v, v);
  for (int my = 0; my < s; ++my) {
    for (int mx = 0; mx < s; ++mx) {
      const double a = vm[static_cast<std::size_t>(my) * s + mx];
      const double b = vm[static_cast<std::size_t>(mx) * s + my];                   // transpose
      const double c = vm[static_cast<std::size_t>(my) * s + (s - 1 - mx)];         // mirror x
      EXPECT_NEAR(a, b, 0.02 * max_v);
      EXPECT_NEAR(a, c, 0.02 * max_v);
    }
  }
}

TEST(Reconstruct, DisplacementRequiresSampling) {
  const BlockGrid grid = make_grid(2, 2);
  GlobalProblem problem = assemble_global(grid, tsv_model(), nullptr, {}, -250.0);
  const Vec u = solve_global_multi(problem, {}, clamp_top_bottom(grid), {}).front();
  // tsv_model() was built with displacement sampling on (default) — works.
  EXPECT_NO_THROW(reconstruct_plane_displacement(grid, tsv_model(), nullptr, {}, u, -250.0,
                                                 BlockRange::all(grid)));
  // A model without displacement samples must throw.
  RomModel stripped = tsv_model();
  stripped.displacement_samples = la::DenseMatrix();
  EXPECT_THROW(reconstruct_plane_displacement(grid, stripped, nullptr, {}, u, -250.0,
                                              BlockRange::all(grid)),
               std::logic_error);
}

TEST(Reconstruct, BatchedMatchesPerBlockGemvBitwise) {
  // The batched, team-parallel product against one GEMV per block, bit for
  // bit: all three variants, with and without dummy blocks, over the full
  // range and an inner one, at team sizes 1-4 (uneven point slices). The
  // per-model block counts (15; 10 + 5; 4; 3 + 1) include ones that are no
  // multiple of 4, so the kernel's column tails run.
  const BlockGrid grid = make_grid(5, 3);
  BlockMask mask(static_cast<std::size_t>(grid.num_blocks()));
  for (int b = 0; b < grid.num_blocks(); ++b) {
    mask[static_cast<std::size_t>(b)] = (b % 5 + b / 5) % 3 == 0 ? 0 : 1;
  }
  const Vec deltas = random_vec(static_cast<std::size_t>(grid.num_blocks()), 200.0, 7);
  const BlockLoadField load(5, 3, deltas);
  const Vec u = random_vec(static_cast<std::size_t>(grid.num_dofs()), 1e-3, 11);
  for (const int s : {7, 10, 13}) {
    const RomModel tsv = random_sample_model(s, BlockKind::Tsv, 100u + s);
    const RomModel dummy = random_sample_model(s, BlockKind::Dummy, 200u + s);
    for (const bool masked : {false, true}) {
      const RomModel* dm = masked ? &dummy : nullptr;
      const BlockMask& mk = masked ? mask : BlockMask{};
      for (const BlockRange& range : {BlockRange::all(grid), BlockRange{1, 5, 1, 2}}) {
        const auto stress =
            per_block_gemv::reconstruct_plane_stress(grid, tsv, dm, mk, u, load, range);
        const auto disp =
            per_block_gemv::reconstruct_plane_displacement(grid, tsv, dm, mk, u, load, range);
        const auto shear =
            per_block_gemv::reconstruct_bump_plane_shear(grid, tsv, dm, mk, u, load, range);
        for (const int threads : {1, 2, 3, 4}) {
          const testutil::TeamSizeScope team(threads);
          const std::string where = "s " + std::to_string(s) + (masked ? ", masked" : "") +
                                    ", range width " + std::to_string(range.width()) +
                                    ", team " + std::to_string(threads);
          EXPECT_TRUE(
              same_bits(reconstruct_plane_stress(grid, tsv, dm, mk, u, load, range), stress))
              << where;
          EXPECT_TRUE(
              same_bits(reconstruct_plane_displacement(grid, tsv, dm, mk, u, load, range), disp))
              << where;
          EXPECT_TRUE(
              same_bits(reconstruct_bump_plane_shear(grid, tsv, dm, mk, u, load, range), shear))
              << where;
        }
      }
    }
  }
}

TEST(Reconstruct, RejectsDummyWithoutTheSamplesTheCallReads) {
  // A dummy model lacking the sample matrix a variant reads used to
  // reconstruct its blocks as zero (the loop ran over the dummy's own empty
  // matrix). It must throw like a TSV model without them, wherever the range
  // uses the dummy.
  const BlockGrid grid = make_grid(3, 3);
  const BlockMask ring{0, 0, 0, 0, 1, 0, 0, 0, 0};
  const BlockRange all = BlockRange::all(grid);
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  const RomModel tsv = random_sample_model(7, BlockKind::Tsv, 1);
  const Vec u = random_vec(static_cast<std::size_t>(grid.num_dofs()), 1e-3, 3);

  RomModel no_disp = random_sample_model(7, BlockKind::Dummy, 2);
  no_disp.displacement_samples = DenseMatrix();
  EXPECT_THROW(reconstruct_plane_displacement(grid, tsv, &no_disp, ring, u, load, all),
               std::logic_error);
  EXPECT_NO_THROW(reconstruct_bump_plane_shear(grid, tsv, &no_disp, ring, u, load, all));
  // The centre block is the ring's one TSV block: the dummy is not in use.
  EXPECT_NO_THROW(
      reconstruct_plane_displacement(grid, tsv, &no_disp, ring, u, load, BlockRange{1, 2, 1, 2}));

  RomModel no_shear = random_sample_model(7, BlockKind::Dummy, 2);
  no_shear.bump_shear_samples = DenseMatrix();
  EXPECT_THROW(reconstruct_bump_plane_shear(grid, tsv, &no_shear, ring, u, load, all),
               std::logic_error);
  EXPECT_NO_THROW(reconstruct_plane_displacement(grid, tsv, &no_shear, ring, u, load, all));

  RomModel no_stress = random_sample_model(7, BlockKind::Dummy, 2);
  no_stress.stress_samples = DenseMatrix();
  EXPECT_THROW(reconstruct_plane_stress(grid, tsv, &no_stress, ring, u, load, all),
               std::logic_error);
}

TEST(Reconstruct, RejectsIncompatibleDummy) {
  // A dummy sampled more coarsely than the TSV model used to be read with
  // the TSV model's row count, past the end of its sample matrices.
  // assemble_global rejects such a pair; reconstruction must too.
  const BlockGrid grid = make_grid(3, 3);
  const BlockMask ring{0, 0, 0, 0, 1, 0, 0, 0, 0};
  const BlockRange all = BlockRange::all(grid);
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  const RomModel tsv = random_sample_model(10, BlockKind::Tsv, 1);
  const RomModel coarse = random_sample_model(7, BlockKind::Dummy, 2);
  const Vec u = random_vec(static_cast<std::size_t>(grid.num_dofs()), 1e-3, 3);
  EXPECT_THROW(reconstruct_plane_displacement(grid, tsv, &coarse, ring, u, load, all),
               std::invalid_argument);
  EXPECT_THROW(reconstruct_bump_plane_shear(grid, tsv, &coarse, ring, u, load, all),
               std::invalid_argument);
  EXPECT_THROW(reconstruct_plane_stress(grid, tsv, &coarse, ring, u, load, all),
               std::invalid_argument);
}

TEST(Reconstruct, RejectsGridOfOtherNodeCount) {
  // The models have 3x3x3 nodes per block. A grid of fewer nodes per axis
  // used to be read past the end of its blocks' dof lists, inside the
  // sample-point loop; one of more would put the samples on the wrong nodes.
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  const RomModel tsv = random_sample_model(7, BlockKind::Tsv, 1);
  for (const std::array<int, 3> nodes : {std::array{2, 2, 2}, std::array{4, 4, 4}}) {
    const BlockGrid grid(2, 2, nodes[0], nodes[1], nodes[2], 15.0, 50.0);
    const BlockRange all = BlockRange::all(grid);
    const Vec u = random_vec(static_cast<std::size_t>(grid.num_dofs()), 1e-3, 3);
    EXPECT_THROW(reconstruct_plane_stress(grid, tsv, nullptr, {}, u, load, all),
                 std::invalid_argument);
    EXPECT_THROW(reconstruct_plane_displacement(grid, tsv, nullptr, {}, u, load, all),
                 std::invalid_argument);
    EXPECT_THROW(reconstruct_bump_plane_shear(grid, tsv, nullptr, {}, u, load, all),
                 std::invalid_argument);
  }
}

TEST(Reconstruct, RejectsShortSolution) {
  // A solution shorter than the grid's dof count used to be read past its
  // end; the last block's dofs are the highest.
  const BlockGrid grid = make_grid(2, 2);
  const BlockRange all = BlockRange::all(grid);
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  const RomModel tsv = random_sample_model(7, BlockKind::Tsv, 1);
  const Vec half = random_vec(static_cast<std::size_t>(grid.num_dofs() / 2), 1e-3, 3);
  EXPECT_THROW(reconstruct_plane_stress(grid, tsv, nullptr, {}, half, load, all),
               std::invalid_argument);
  EXPECT_THROW(reconstruct_plane_displacement(grid, tsv, nullptr, {}, half, load, all),
               std::invalid_argument);
  EXPECT_THROW(reconstruct_bump_plane_shear(grid, tsv, nullptr, {}, half, load, all),
               std::invalid_argument);
}

}  // namespace
}  // namespace ms::rom
