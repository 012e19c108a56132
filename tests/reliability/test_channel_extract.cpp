// The batched channel-only extractor against the full-field reference path
// (ISSUE 7 tentpole acceptance): for every step, reconstructing the dense
// mid-plane stress + bump-plane shear fields and reducing them with the
// reference record_step must agree with extract_channel_history to 1e-10 of
// the channel scale — on a plain TSV array and on a masked submodel-style
// window with dummy blocks and an interior report range. Also locks the
// bump-plane sample matrix itself against a fine-FEM plane sample.

#include "reliability/channel_extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fem/dirichlet.hpp"
#include "fem/solver.hpp"
#include "fem/stress.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"

namespace ms::reliability {
namespace {

mesh::TsvGeometry geometry() { return {15.0, 5.0, 0.5, 50.0}; }
mesh::BlockMeshSpec spec() { return {6, 3}; }

const fem::MaterialTable& table() {
  static const fem::MaterialTable t = fem::MaterialTable::standard();
  return t;
}

const rom::RomModel& model_of(rom::BlockKind kind) {
  static const rom::RomModel tsv = [] {
    rom::LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 7;
    return run_local_stage(geometry(), spec(), table(), rom::BlockKind::Tsv, options);
  }();
  static const rom::RomModel dummy = [] {
    rom::LocalStageOptions options;
    options.nodes_x = options.nodes_y = options.nodes_z = 3;
    options.samples_per_block = 7;
    return run_local_stage(geometry(), spec(), table(), rom::BlockKind::Dummy, options);
  }();
  return kind == rom::BlockKind::Tsv ? tsv : dummy;
}

/// Deterministic per-step loads: a tilted bowl whose depth varies by step.
rom::BlockLoadField step_load(int blocks_x, int blocks_y, int step) {
  la::Vec values(static_cast<std::size_t>(blocks_x) * blocks_y);
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      values[static_cast<std::size_t>(by) * blocks_x + bx] =
          -250.0 * (0.4 + 0.6 * std::sin(0.7 * step + 0.3 * bx + 0.5 * by) *
                              std::sin(0.7 * step + 0.3 * bx + 0.5 * by));
    }
  }
  return rom::BlockLoadField(blocks_x, blocks_y, std::move(values));
}

/// Solve the global problem for each step load and lock the extractor
/// against the per-step full-field reduction.
void lock_against_full_field(int blocks_x, int blocks_y, const rom::BlockMask& mask,
                             const rom::RomModel* dummy, const rom::BlockRange& range,
                             int num_steps) {
  const rom::RomModel& tsv = model_of(rom::BlockKind::Tsv);
  const rom::BlockGrid grid(blocks_x, blocks_y, 3, 3, 3, geometry().pitch, geometry().height);
  const fem::DirichletBc bc = rom::clamp_top_bottom(grid);

  std::vector<rom::Vec> solutions;
  std::vector<rom::BlockLoadField> loads;
  std::vector<double> times;
  for (int t = 0; t < num_steps; ++t) {
    loads.push_back(step_load(blocks_x, blocks_y, t));
    rom::GlobalProblem problem = rom::assemble_global(grid, tsv, dummy, mask, loads.back());
    solutions.push_back(rom::solve_global_multi(problem, {}, bc, {}).front());
    times.push_back(static_cast<double>(t));
  }

  // Reference: dense per-step reconstruction through the 4-arg record_step.
  StressHistory reference(range.width(), range.height());
  reference.resize_steps(times);
  for (int t = 0; t < num_steps; ++t) {
    const auto stress = rom::reconstruct_plane_stress(grid, tsv, dummy, mask, solutions[t],
                                                      loads[t], range);
    const auto shear = rom::reconstruct_bump_plane_shear(grid, tsv, dummy, mask, solutions[t],
                                                         loads[t], range);
    reference.record_step(static_cast<std::size_t>(t), stress, shear, tsv.samples_per_block);
  }

  StressHistory batched(range.width(), range.height());
  batched.resize_steps(times);
  extract_channel_history(grid, tsv, dummy, mask, solutions, loads, range, batched);

  double scale = 0.0;
  for (std::size_t t = 0; t < reference.num_steps(); ++t) {
    for (int c = 0; c < kNumChannels; ++c) {
      for (std::size_t b = 0; b < reference.num_blocks(); ++b) {
        scale = std::max(scale,
                         std::abs(reference.value(t, static_cast<StressChannel>(c), b)));
      }
    }
  }
  ASSERT_GT(scale, 0.0);
  for (std::size_t t = 0; t < reference.num_steps(); ++t) {
    for (int c = 0; c < kNumChannels; ++c) {
      for (std::size_t b = 0; b < reference.num_blocks(); ++b) {
        const StressChannel channel = static_cast<StressChannel>(c);
        EXPECT_NEAR(batched.value(t, channel, b), reference.value(t, channel, b), 1e-10 * scale)
            << "step " << t << " channel " << c << " block " << b;
      }
    }
  }
}

TEST(ChannelExtract, LocksToFullFieldPathOnArray) {
  rom::BlockRange range;
  range.bx0 = 0;
  range.bx1 = 3;
  range.by0 = 0;
  range.by1 = 2;
  lock_against_full_field(3, 2, {}, nullptr, range, /*num_steps=*/6);
}

TEST(ChannelExtract, LocksToFullFieldPathOnMaskedSubmodelWindow) {
  // 4x3 padded window: one dummy ring around a 2x1 TSV core, reported over
  // the interior range only — exercises the mask/dummy-model resolution and
  // the range-offset block indexing.
  const int bx = 4, by = 3;
  rom::BlockMask mask(static_cast<std::size_t>(bx) * by, 0);
  mask[1 * bx + 1] = 1;
  mask[1 * bx + 2] = 1;
  rom::BlockRange range;
  range.bx0 = 1;
  range.bx1 = 3;
  range.by0 = 1;
  range.by1 = 2;
  lock_against_full_field(bx, by, mask, &model_of(rom::BlockKind::Dummy), range,
                          /*num_steps=*/5);
}

TEST(ChannelExtract, ValidatesItsInputs) {
  const rom::RomModel& tsv = model_of(rom::BlockKind::Tsv);
  const rom::BlockGrid grid(2, 2, 3, 3, 3, geometry().pitch, geometry().height);
  const rom::BlockRange range = rom::BlockRange::all(grid);
  std::vector<rom::Vec> solutions(2, rom::Vec(grid.num_dofs(), 0.0));
  std::vector<rom::BlockLoadField> loads(2, step_load(2, 2, 0));
  StressHistory history(2, 2);
  history.resize_steps({0.0, 1.0});

  // Mismatched step counts.
  std::vector<rom::Vec> one_solution(1, solutions.front());
  EXPECT_THROW(
      extract_channel_history(grid, tsv, nullptr, {}, one_solution, loads, range, history),
      std::invalid_argument);
  // Mask selects dummy blocks without a dummy model.
  rom::BlockMask mask(4, 0);
  mask[0] = 1;
  EXPECT_THROW(extract_channel_history(grid, tsv, nullptr, mask, solutions, loads, range, history),
               std::invalid_argument);
  // A dummy sampled at another resolution would be read with the TSV
  // model's shape.
  rom::RomModel coarse = model_of(rom::BlockKind::Dummy);
  coarse.samples_per_block = 5;
  EXPECT_THROW(extract_channel_history(grid, tsv, &coarse, mask, solutions, loads, range, history),
               std::invalid_argument);
  // History extent must match the range.
  StressHistory wrong(1, 1);
  wrong.resize_steps({0.0, 1.0});
  EXPECT_THROW(extract_channel_history(grid, tsv, nullptr, {}, solutions, loads, range, wrong),
               std::invalid_argument);
}

TEST(ChannelExtract, RejectsGridOfOtherNodeCount) {
  // The model has 3x3x3 nodes per block. A grid of fewer nodes per axis
  // used to be read past the end of its blocks' dof lists inside the
  // extraction's parallel region.
  const rom::RomModel& tsv = model_of(rom::BlockKind::Tsv);
  for (const int nodes : {2, 4}) {
    const rom::BlockGrid grid(2, 2, nodes, nodes, nodes, geometry().pitch, geometry().height);
    const rom::BlockRange range = rom::BlockRange::all(grid);
    const std::vector<rom::Vec> solutions(2, rom::Vec(grid.num_dofs(), 1e-4));
    const std::vector<rom::BlockLoadField> loads(2, step_load(2, 2, 0));
    StressHistory history(2, 2);
    history.resize_steps({0.0, 1.0});
    EXPECT_THROW(
        extract_channel_history(grid, tsv, nullptr, {}, solutions, loads, range, history),
        std::invalid_argument);
  }
}

TEST(ChannelExtract, RejectsShortSolution) {
  // A step solution shorter than the grid's dof count used to be read past
  // its end inside the parallel region; the last block's dofs are the
  // highest.
  const rom::RomModel& tsv = model_of(rom::BlockKind::Tsv);
  const rom::BlockGrid grid(2, 2, 3, 3, 3, geometry().pitch, geometry().height);
  const rom::BlockRange range = rom::BlockRange::all(grid);
  std::vector<rom::Vec> solutions(2, rom::Vec(grid.num_dofs(), 1e-4));
  solutions.back().resize(static_cast<std::size_t>(grid.num_dofs() / 2));
  const std::vector<rom::BlockLoadField> loads(2, step_load(2, 2, 0));
  StressHistory history(2, 2);
  history.resize_steps({0.0, 1.0});
  EXPECT_THROW(extract_channel_history(grid, tsv, nullptr, {}, solutions, loads, range, history),
               std::invalid_argument);
}

TEST(ChannelExtract, RejectsModelWithShortStressSamples) {
  // Extraction reads 6 s^2 stress rows and 2 s^2 bump-shear rows per model
  // by shape; a model with half its stress rows used to be read past their
  // end before the parallel region. Each model the call uses is checked,
  // with reconstruction's classification: an internal defect (logic_error),
  // not a bad spec (invalid_argument).
  const rom::BlockGrid grid(2, 2, 3, 3, 3, geometry().pitch, geometry().height);
  const rom::BlockRange range = rom::BlockRange::all(grid);
  const std::vector<rom::Vec> solutions(2, rom::Vec(grid.num_dofs(), 1e-4));
  const std::vector<rom::BlockLoadField> loads(2, step_load(2, 2, 0));
  const rom::BlockMask mask{1, 0, 0, 1};
  const auto halved = [](const rom::RomModel& model) {
    rom::RomModel cut = model;
    const la::DenseMatrix& full = model.stress_samples;
    cut.stress_samples = la::DenseMatrix(full.rows() / 2, full.cols());
    std::copy(full.data().begin(), full.data().begin() + cut.stress_samples.data().size(),
              cut.stress_samples.data().begin());
    return cut;
  };
  const rom::RomModel short_tsv = halved(model_of(rom::BlockKind::Tsv));
  const rom::RomModel short_dummy = halved(model_of(rom::BlockKind::Dummy));
  const std::pair<const rom::RomModel*, const rom::RomModel*> cases[] = {
      {&short_tsv, &model_of(rom::BlockKind::Dummy)},
      {&model_of(rom::BlockKind::Tsv), &short_dummy}};
  for (const auto& [tsv, dummy] : cases) {
    StressHistory history(2, 2);
    history.resize_steps({0.0, 1.0});
    try {
      extract_channel_history(grid, *tsv, dummy, mask, solutions, loads, range, history);
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "classified as a bad input: " << e.what();
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("mid-plane stress"), std::string::npos) << e.what();
    }
  }
}

TEST(ChannelExtract, BumpPlaneSamplesMatchFineFemPlaneSample) {
  // The bump-plane sample matrix against an independent fine-FEM solve of
  // the same single-block Dirichlet problem: clamp every surface node to a
  // smooth interpolated field (the regime where the ROM is exact, see
  // tests/integration) and compare the through-plane shear resultant on the
  // bump plane z = height / (2 elems_z).
  const rom::RomModel& tsv = model_of(rom::BlockKind::Tsv);
  const rom::BlockGrid grid(1, 1, 3, 3, 3, geometry().pitch, geometry().height);
  const auto smooth = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-4 * p.x * p.x / 15.0 + 2e-4 * p.z, -2e-4 * p.y,
                                 1e-4 * (p.z - 25.0) + 1e-4 * p.x};
  };
  const rom::BlockLoadField load = rom::BlockLoadField::uniform(-250.0);
  rom::GlobalProblem problem = rom::assemble_global(grid, tsv, nullptr, {}, load);
  const fem::DirichletBc rom_bc = rom::submodel_boundary(grid, smooth);
  const rom::Vec u = rom::solve_global_multi(problem, {}, rom_bc, {}).front();
  const auto rom_shear = rom::reconstruct_bump_plane_shear(grid, tsv, nullptr, {}, u, load,
                                                           rom::BlockRange::all(grid));
  std::vector<double> rom_resultant(rom_shear.size());
  for (std::size_t i = 0; i < rom_shear.size(); ++i) {
    rom_resultant[i] = std::hypot(rom_shear[i][0], rom_shear[i][1]);
  }

  // Fine FEM with the boundary values interpolated exactly like the ROM's
  // surface-node basis (so the two solve the identical discrete problem).
  const mesh::HexMesh fine = mesh::build_tsv_block_mesh(geometry(), spec());
  const rom::SurfaceNodeSet sns = tsv.surface_nodes();
  la::Vec nodal(3 * sns.count());
  for (la::idx_t m = 0; m < sns.count(); ++m) {
    const auto v = smooth(sns.position(m));
    for (int c = 0; c < 3; ++c) nodal[3 * m + c] = v[c];
  }
  const auto bnodes = fine.boundary_nodes();
  la::Vec values;
  values.reserve(3 * bnodes.size());
  for (la::idx_t node : bnodes) {
    const mesh::Point3 p = fine.node_pos(node);
    double interp[3] = {0.0, 0.0, 0.0};
    for (la::idx_t m = 0; m < sns.count(); ++m) {
      const double w = sns.weight(p, m);
      if (w == 0.0) continue;
      for (int c = 0; c < 3; ++c) interp[c] += w * nodal[3 * m + c];
    }
    values.insert(values.end(), {interp[0], interp[1], interp[2]});
  }
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(bnodes, values);
  fem::FemSolveOptions options;
  options.method = "direct";
  const la::Vec u_fine = fem::solve_thermal_stress(fine, table(), -250.0, bc, options);
  const double z_bump = 0.5 * geometry().height / spec().elems_z;
  const fem::PlaneGrid plane =
      fem::make_block_plane_grid(geometry().pitch, 1, 1, tsv.samples_per_block, z_bump);
  const auto ref_stress = fem::sample_plane_stress(fine, table(), u_fine, -250.0, plane);
  std::vector<double> ref_resultant(ref_stress.size());
  for (std::size_t i = 0; i < ref_stress.size(); ++i) {
    ref_resultant[i] = std::hypot(ref_stress[i][3], ref_stress[i][4]);
  }

  ASSERT_EQ(ref_resultant.size(), rom_resultant.size());
  EXPECT_LT(fem::normalized_mae(ref_resultant, rom_resultant), 1e-7);
}

}  // namespace
}  // namespace ms::reliability
