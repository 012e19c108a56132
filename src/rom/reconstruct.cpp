#include "rom/reconstruct.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "la/team.hpp"

namespace ms::rom {
namespace {

/// The three variants in one: R values per sample point, read from
/// the sample matrix `samples` (R * s^2 rows, n + 1 columns) of each model.
///
/// For each model the range uses, its blocks' coefficient vectors
/// [u_block; ΔT_block] gather into one column-major (n + 1) x nb panel, and
/// each sample point's R rows multiply that panel in one la::rows_times_cols
/// call; the OpenMP team splits the sample points. Every output entry is one
/// k-ascending accumulator from zero computed by one thread, so the field is
/// bitwise the same as one GEMV per block, at every team size. Validation
/// and buffers come first: nothing in the parallel region throws or
/// allocates.
template <int R>
std::vector<std::array<double, R>> reconstruct_samples(
    const std::string& caller, DenseMatrix RomModel::*samples, const char* what,
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  validate_block_inputs(caller, grid, tsv_model, dummy_model, mask, range, &u, 1);
  load.validate_extent(grid.blocks_x(), grid.blocks_y());

  const int s = tsv_model.samples_per_block;
  const idx_t n = tsv_model.num_element_dofs();
  const idx_t nk = n + 1;
  const idx_t npts = static_cast<idx_t>(s) * s;
  const int bw = range.width();
  const int num_blocks = bw * range.height();

  // The range's blocks per model, y-major: [0] TSV, [1] dummy.
  std::vector<int> blocks_of[2];
  for (int b = 0; b < num_blocks; ++b) {
    const std::size_t gb =
        static_cast<std::size_t>(range.by0 + b / bw) * grid.blocks_x() + range.bx0 + b % bw;
    const bool is_dummy = !mask.empty() && mask[gb] == 0;
    blocks_of[is_dummy ? 1 : 0].push_back(b);
  }
  const RomModel* models[2] = {&tsv_model, dummy_model};
  require_samples(caller, tsv_model, blocks_of[1].empty() ? nullptr : dummy_model, samples, R,
                  what);

  const std::size_t width = static_cast<std::size_t>(bw) * s;
  std::vector<std::array<double, R>> out(width * static_cast<std::size_t>(range.height()) * s);
  const std::size_t max_nb = std::max(blocks_of[0].size(), blocks_of[1].size());
  std::vector<double> panel(static_cast<std::size_t>(nk) * max_nb);
  std::vector<std::size_t> origin(max_nb);  // output index of each block's first point
  std::vector<double> vals(static_cast<std::size_t>(la::max_team_size()) * R * max_nb);

  for (int m = 0; m < 2; ++m) {
    const std::vector<int>& blocks = blocks_of[m];
    if (blocks.empty()) continue;
    const DenseMatrix& sm = models[m]->*samples;
    const idx_t nb = static_cast<idx_t>(blocks.size());
    for (idx_t j = 0; j < nb; ++j) {
      const int bx = range.bx0 + blocks[j] % bw;
      const int by = range.by0 + blocks[j] / bw;
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      double* col = panel.data() + static_cast<std::size_t>(j) * nk;
      for (idx_t i = 0; i < n; ++i) col[i] = u[dofs[i]];
      col[n] = load.at(bx, by);
      origin[j] = static_cast<std::size_t>(by - range.by0) * s * width +
                  static_cast<std::size_t>(bx - range.bx0) * s;
    }
#pragma omp parallel
    {
      double* v = vals.data() + static_cast<std::size_t>(la::team_member().rank) * R * nb;
#pragma omp for schedule(static)
      for (idx_t pt = 0; pt < npts; ++pt) {
        la::rows_times_cols(sm, R * pt, R, panel.data(), nb, v);
        const std::size_t offset = static_cast<std::size_t>(pt / s) * width + pt % s;
        for (idx_t j = 0; j < nb; ++j) {
          std::array<double, R>& point = out[origin[j] + offset];
          for (int r = 0; r < R; ++r) point[r] = v[static_cast<std::size_t>(r) * nb + j];
        }
      }
    }
  }
  return out;
}

}  // namespace

void require_samples(const std::string& caller, const RomModel& tsv_model,
                     const RomModel* dummy_model, DenseMatrix RomModel::*samples,
                     int rows_per_point, const char* what) {
  const idx_t s = tsv_model.samples_per_block;
  const idx_t rows = rows_per_point * s * s;
  const idx_t cols = tsv_model.num_element_dofs() + 1;
  for (const RomModel* model : {&tsv_model, dummy_model}) {
    if (model == nullptr) continue;
    const DenseMatrix& sm = model->*samples;
    if (sm.rows() != rows || sm.cols() != cols) {
      throw std::logic_error(caller + ": " + (model == &tsv_model ? "TSV" : "dummy") +
                             " model carries no " + what + " samples of " +
                             std::to_string(rows) + " x " + std::to_string(cols) +
                             " (rebuild the local stage)");
    }
  }
}

std::vector<fem::Stress6> reconstruct_plane_stress(const BlockGrid& grid,
                                                   const RomModel& tsv_model,
                                                   const RomModel* dummy_model,
                                                   const BlockMask& mask, const Vec& u,
                                                   const BlockLoadField& load,
                                                   const BlockRange& range) {
  return reconstruct_samples<fem::kVoigt>(
      "reconstruct_plane_stress", &RomModel::stress_samples, "mid-plane stress", grid, tsv_model,
      dummy_model, mask, u, load, range);
}

std::vector<double> reconstruct_plane_von_mises(const BlockGrid& grid, const RomModel& tsv_model,
                                                const RomModel* dummy_model, const BlockMask& mask,
                                                const Vec& u, const BlockLoadField& load,
                                                const BlockRange& range) {
  const std::vector<fem::Stress6> stress =
      reconstruct_plane_stress(grid, tsv_model, dummy_model, mask, u, load, range);
  return fem::to_von_mises(stress);
}

std::vector<std::array<double, 3>> reconstruct_plane_displacement(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  return reconstruct_samples<3>(
      "reconstruct_plane_displacement", &RomModel::displacement_samples,
      "displacement", grid, tsv_model, dummy_model, mask,
      u, load, range);
}

std::vector<std::array<double, 2>> reconstruct_bump_plane_shear(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  return reconstruct_samples<2>(
      "reconstruct_bump_plane_shear", &RomModel::bump_shear_samples,
      "bump-plane shear", grid, tsv_model, dummy_model, mask, u, load,
      range);
}

}  // namespace ms::rom
