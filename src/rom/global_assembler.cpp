#include "rom/global_assembler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace ms::rom {
namespace {

/// Everything either entry point reads, checked before any loop indexes by
/// it. The TSV model sets the shape, so it is always checked; the dummy
/// only where the mask uses it. `stiffness` adds the element stiffness of
/// each model in use to the element load.
void validate_inputs(const std::string& caller, const BlockGrid& grid, const RomModel& tsv_model,
                     const RomModel* dummy_model, const BlockMask& mask,
                     const BlockLoadField& load, bool stiffness) {
  const bool uses_dummy = validate_block_inputs(caller, grid, tsv_model, dummy_model, mask,
                                                BlockRange::all(grid));
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
  const idx_t n = tsv_model.num_element_dofs();
  for (const RomModel* model : {&tsv_model, uses_dummy ? dummy_model : nullptr}) {
    if (model == nullptr) continue;
    if (model->element_load.size() != static_cast<std::size_t>(n) ||
        (stiffness &&
         (model->element_stiffness.rows() != n || model->element_stiffness.cols() != n))) {
      throw std::invalid_argument(caller + ": " + (model == &tsv_model ? "TSV" : "dummy") +
                                  " model element matrices missing");
    }
  }
}

const RomModel& block_model(const RomModel& tsv_model, const RomModel* dummy_model,
                            const BlockMask& mask, int blocks_x, int bx, int by) {
  const bool is_tsv =
      mask.empty() || mask[static_cast<std::size_t>(by) * blocks_x + bx] != 0;
  return is_tsv ? tsv_model : *dummy_model;
}

/// The blocks [lo, hi] along one axis that hold lattice line g, each block
/// spanning `step` lattice intervals: one block, or two across a shared face.
struct BlockSpan {
  int lo, hi;
};

BlockSpan blocks_on_line(int g, int step, int num_blocks) {
  const int b = g / step;
  if (g % step != 0) return {b, b};
  return {std::max(b - 1, 0), std::min(b, num_blocks - 1)};
}

/// The global stiffness straight into CSR, with no triplets and no sort.
/// Node p couples to every surface node of the <= 4 blocks that hold it:
/// the global nodes of the lattice box those blocks span, whose ids ascend
/// when the box is walked k, j, i (the order BlockGrid numbers them in).
/// Its three dof rows share that column list. The rows are counted first;
/// then the OpenMP team splits the nodes, and each node fills its rows'
/// columns and adds, block by block in ascending block id, that block's
/// element-stiffness rows into them. A block's surface nodes ascend in
/// global id too, so one forward walk of the row finds each one's slot.
/// Every entry is thus a sum from zero over its blocks in ascending id, as
/// a serial block-by-block assembly adds them, at every team size, and a
/// symmetric element stiffness gives an exactly symmetric operator.
CsrMatrix assemble_stiffness(const BlockGrid& grid, const RomModel& tsv_model,
                             const RomModel* dummy_model, const BlockMask& mask) {
  const SurfaceNodeSet& sns = grid.surface_nodes();
  const int step_x = sns.nx() - 1;
  const int step_y = sns.ny() - 1;
  const int blocks_x = grid.blocks_x();
  const idx_t num_nodes = grid.num_nodes();
  const idx_t num_dofs = grid.num_dofs();

  const auto spans_of = [&](idx_t p) {
    const auto& [gi, gj, gk] = grid.node_ijk(p);
    return std::pair{blocks_on_line(gi, step_x, blocks_x),
                     blocks_on_line(gj, step_y, grid.blocks_y())};
  };
  const auto for_each_coupled_node = [&](const BlockSpan& sx, const BlockSpan& sy,
                                         const auto& visit) {
    for (int gk = 0; gk < grid.grid_z(); ++gk) {
      for (int gj = sy.lo * step_y; gj <= (sy.hi + 1) * step_y; ++gj) {
        for (int gi = sx.lo * step_x; gi <= (sx.hi + 1) * step_x; ++gi) {
          const idx_t q = grid.node_at(gi, gj, gk);
          if (q >= 0) visit(q);
        }
      }
    }
  };

  std::vector<la::offset_t> row_ptr(static_cast<std::size_t>(num_dofs) + 1, 0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (idx_t p = 0; p < num_nodes; ++p) {
    const auto [sx, sy] = spans_of(p);
    la::offset_t len = 0;
    for_each_coupled_node(sx, sy, [&](idx_t) { len += 3; });
    for (int c = 0; c < 3; ++c) row_ptr[static_cast<std::size_t>(3 * p + c) + 1] = len;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_dofs); ++r) row_ptr[r + 1] += row_ptr[r];

  std::vector<idx_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size(), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (idx_t p = 0; p < num_nodes; ++p) {
    const auto [sx, sy] = spans_of(p);
    const la::offset_t r0 = row_ptr[static_cast<std::size_t>(3 * p)];
    const la::offset_t len = row_ptr[static_cast<std::size_t>(3 * p) + 1] - r0;
    idx_t* cols = col_idx.data() + r0;
    la::offset_t t = 0;
    for_each_coupled_node(sx, sy, [&](idx_t q) {
      for (int c = 0; c < 3; ++c) cols[t++] = 3 * q + c;
    });
    std::copy_n(cols, len, cols + len);
    std::copy_n(cols, len, cols + 2 * len);

    const auto& [gi, gj, gk] = grid.node_ijk(p);
    for (int by = sy.lo; by <= sy.hi; ++by) {
      for (int bx = sx.lo; bx <= sx.hi; ++bx) {
        const DenseMatrix& k =
            block_model(tsv_model, dummy_model, mask, blocks_x, bx, by).element_stiffness;
        const int ox = bx * step_x;
        const int oy = by * step_y;
        const idx_t mp = sns.index_of(gi - ox, gj - oy, gk);
        la::offset_t slot = 0;
        for (idx_t m = 0; m < sns.count(); ++m) {
          const auto& [i, j, kk] = sns.node_ijk(m);
          const idx_t col = 3 * grid.node_at(ox + i, oy + j, kk);
          while (cols[slot] != col) {
            slot += 3;
            assert(slot < len);
          }
          for (int c = 0; c < 3; ++c) {
            const double* src =
                k.data().data() + static_cast<std::size_t>(3 * mp + c) * k.cols() + 3 * m;
            double* dst = values.data() + r0 + c * len + slot;
            dst[0] += src[0];
            dst[1] += src[1];
            dst[2] += src[2];
          }
        }
      }
    }
  }
  return CsrMatrix::from_raw(num_dofs, num_dofs, std::move(row_ptr), std::move(col_idx),
                             std::move(values));
}

}  // namespace

bool validate_block_inputs(const std::string& caller, const BlockGrid& grid,
                           const RomModel& tsv_model, const RomModel* dummy_model,
                           const BlockMask& mask, const BlockRange& range,
                           const Vec* solutions, std::size_t num_solutions) {
  if (range.bx0 < 0 || range.bx1 > grid.blocks_x() || range.by0 < 0 ||
      range.by1 > grid.blocks_y() || range.width() <= 0 || range.height() <= 0) {
    throw std::invalid_argument(caller + ": block range out of bounds");
  }
  if (!mask.empty() && mask.size() != static_cast<std::size_t>(grid.num_blocks())) {
    throw std::invalid_argument(caller + ": mask size must be blocks_x*blocks_y");
  }
  if (dummy_model != nullptr && !tsv_model.compatible_with(*dummy_model)) {
    throw std::invalid_argument(caller + ": dummy model incompatible with TSV model");
  }
  bool uses_dummy = false;
  for (int by = range.by0; by < range.by1 && !mask.empty(); ++by) {
    for (int bx = range.bx0; bx < range.bx1; ++bx) {
      uses_dummy |= mask[static_cast<std::size_t>(by) * grid.blocks_x() + bx] == 0;
    }
  }
  if (uses_dummy && dummy_model == nullptr) {
    throw std::invalid_argument(caller + ": mask selects dummy blocks but no model");
  }
  const SurfaceNodeSet& sns = grid.surface_nodes();
  if (sns.nx() != tsv_model.nodes_x || sns.ny() != tsv_model.nodes_y ||
      sns.nz() != tsv_model.nodes_z) {
    throw std::invalid_argument(caller + ": grid and model differ in nodes per block axis");
  }
  for (std::size_t i = 0; i < num_solutions; ++i) {
    if (solutions[i].size() != static_cast<std::size_t>(grid.num_dofs())) {
      throw std::invalid_argument(caller + ": solution length differs from the grid's dof count");
    }
  }
  return uses_dummy;
}

GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                              const RomModel* dummy_model, const BlockMask& mask,
                              const BlockLoadField& load) {
  MS_TRACE_SCOPE("rom.global.assemble");
  validate_inputs("assemble_global", grid, tsv_model, dummy_model, mask, load, true);
  GlobalProblem problem;
  problem.num_dofs = grid.num_dofs();
  problem.rhs = assemble_global_rhs(grid, tsv_model, dummy_model, mask, load);
  problem.stiffness = assemble_stiffness(grid, tsv_model, dummy_model, mask);
  return problem;
}

Vec assemble_global_rhs(const BlockGrid& grid, const RomModel& tsv_model,
                        const RomModel* dummy_model, const BlockMask& mask,
                        const BlockLoadField& load) {
  MS_TRACE_SCOPE("rom.global.assemble_rhs");
  validate_inputs("assemble_global_rhs", grid, tsv_model, dummy_model, mask, load, false);
  const idx_t n = tsv_model.num_element_dofs();
  Vec rhs(static_cast<std::size_t>(grid.num_dofs()), 0.0);
  // Neighbouring blocks share surface dofs, so the accumulation stays serial
  // and its summation order fixed (bitwise-deterministic).
  for (int by = 0; by < grid.blocks_y(); ++by) {
    for (int bx = 0; bx < grid.blocks_x(); ++bx) {
      const RomModel& model =
          block_model(tsv_model, dummy_model, mask, grid.blocks_x(), bx, by);
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      const double thermal_load = load.at(bx, by);
      for (idx_t i = 0; i < n; ++i) {
        rhs[dofs[i]] += thermal_load * model.element_load[i];
      }
    }
  }
  return rhs;
}

DirichletBc clamp_top_bottom(const BlockGrid& grid) {
  return DirichletBc::clamp_nodes(grid.nodes_top_bottom());
}

DirichletBc submodel_boundary(const BlockGrid& grid,
                              const std::function<std::array<double, 3>(const mesh::Point3&)>&
                                  displacement) {
  const std::vector<idx_t> nodes = grid.nodes_outer_boundary();
  Vec values;
  values.reserve(3 * nodes.size());
  for (idx_t node : nodes) {
    const auto u = displacement(grid.node_position(node));
    values.insert(values.end(), u.begin(), u.end());
  }
  return DirichletBc::clamp_nodes(nodes, values);
}

}  // namespace ms::rom
