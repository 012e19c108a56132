#include "rom/global_assembler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace ms::rom {
namespace {

/// Everything an assembly reads, checked before any loop indexes by it. The
/// TSV model sets the shape, so it is always checked; the dummy only where
/// the mask uses it. `stiffness` adds the element stiffness of each model in
/// use to the element load.
void validate_inputs(const std::string& caller, const BlockGrid& grid, const RomModel& tsv_model,
                     const RomModel* dummy_model, const BlockMask& mask, bool stiffness) {
  const bool uses_dummy = validate_block_inputs(caller, grid, tsv_model, dummy_model, mask,
                                                BlockRange::all(grid));
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

}  // namespace

/// Straight into CSR, with no triplets, no sort and no constrained row. Node
/// p couples to every surface node of the <= 4 blocks that hold it: the
/// global nodes of the lattice box those blocks span, whose ids ascend when
/// the box is walked k, j, i (the order BlockGrid numbers them in). Each of
/// p's free rows holds those nodes' dofs, a free one in K_ff and a
/// constrained one in K_fc, under its split index; split indices ascend with
/// the dof, so both column lists ascend, and p's free rows share them. The
/// rows of the nodes with a free dof are counted first; then the OpenMP team
/// splits those nodes, and each fills its rows' columns and adds, block by
/// block in ascending block id, that block's element-stiffness rows into
/// them. A block's surface nodes ascend in global id too, so one forward walk
/// of each column list finds every slot. Every entry is thus a sum from zero
/// over its blocks in ascending id, as a serial block-by-block assembly adds
/// them, at every team size, and a symmetric element stiffness gives an
/// exactly symmetric K_ff. Validation and every allocation come first, so the
/// parallel regions neither allocate nor throw.
fem::SplitOperator assemble_stiffness(const BlockGrid& grid, const RomModel& tsv_model,
                                      const RomModel* dummy_model, const BlockMask& mask,
                                      const fem::DirichletSplit& split) {
  MS_TRACE_SCOPE("rom.global.assemble");
  validate_inputs("assemble_stiffness", grid, tsv_model, dummy_model, mask, true);
  if (split.num_dofs() != grid.num_dofs()) {
    throw std::invalid_argument("assemble_stiffness: the split has " +
                                std::to_string(split.num_dofs()) + " dofs, the grid " +
                                std::to_string(grid.num_dofs()));
  }
  const SurfaceNodeSet& sns = grid.surface_nodes();
  const int step_x = sns.nx() - 1;
  const int step_y = sns.ny() - 1;
  const int blocks_x = grid.blocks_x();
  const fem::DofPartition& part = split.partition();
  const idx_t* free_map = part.free_map.data();
  const idx_t* bc_map = part.bc_map.data();

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

  // The nodes with a free dof, the only ones that own a row.
  std::vector<idx_t> nodes;
  for (idx_t p = 0; p < grid.num_nodes(); ++p) {
    if (free_map[3 * p] >= 0 || free_map[3 * p + 1] >= 0 || free_map[3 * p + 2] >= 0) {
      nodes.push_back(p);
    }
  }
  const auto num_listed = static_cast<std::ptrdiff_t>(nodes.size());

  const auto num_free = static_cast<std::size_t>(split.num_free());
  std::vector<la::offset_t> ff_ptr(num_free + 1, 0);
  std::vector<la::offset_t> fc_ptr(num_free + 1, 0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::ptrdiff_t t = 0; t < num_listed; ++t) {
    const idx_t p = nodes[static_cast<std::size_t>(t)];
    const auto [sx, sy] = spans_of(p);
    la::offset_t num_ff = 0;
    la::offset_t num_fc = 0;
    for_each_coupled_node(sx, sy, [&](idx_t q) {
      for (int c = 0; c < 3; ++c) ++(free_map[3 * q + c] >= 0 ? num_ff : num_fc);
    });
    for (int c = 0; c < 3; ++c) {
      const idx_t r = free_map[3 * p + c];
      if (r < 0) continue;
      ff_ptr[static_cast<std::size_t>(r) + 1] = num_ff;
      fc_ptr[static_cast<std::size_t>(r) + 1] = num_fc;
    }
  }
  for (std::size_t r = 0; r < num_free; ++r) {
    ff_ptr[r + 1] += ff_ptr[r];
    fc_ptr[r + 1] += fc_ptr[r];
  }

  std::vector<idx_t> ff_col(static_cast<std::size_t>(ff_ptr.back()));
  std::vector<double> ff_val(ff_col.size(), 0.0);
  std::vector<idx_t> fc_col(static_cast<std::size_t>(fc_ptr.back()));
  std::vector<double> fc_val(fc_col.size(), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::ptrdiff_t t = 0; t < num_listed; ++t) {
    const idx_t p = nodes[static_cast<std::size_t>(t)];
    // p's free rows share one K_ff and one K_fc column list: the first free
    // row's lists are written and copied to the others. ff[c] and fc[c] are
    // row c's values in each block, null where component c is constrained.
    const idx_t* rows = free_map + 3 * p;
    const int first = rows[0] >= 0 ? 0 : (rows[1] >= 0 ? 1 : 2);
    double* ff[3] = {};
    double* fc[3] = {};
    for (int c = 0; c < 3; ++c) {
      if (rows[c] < 0) continue;
      ff[c] = ff_val.data() + ff_ptr[static_cast<std::size_t>(rows[c])];
      fc[c] = fc_val.data() + fc_ptr[static_cast<std::size_t>(rows[c])];
    }
    const auto r0 = static_cast<std::size_t>(rows[first]);
    const la::offset_t num_ff = ff_ptr[r0 + 1] - ff_ptr[r0];
    const la::offset_t num_fc = fc_ptr[r0 + 1] - fc_ptr[r0];
    idx_t* ff_cols = ff_col.data() + ff_ptr[r0];
    idx_t* fc_cols = fc_col.data() + fc_ptr[r0];
    const auto [sx, sy] = spans_of(p);
    la::offset_t t_ff = 0;
    la::offset_t t_fc = 0;
    for_each_coupled_node(sx, sy, [&](idx_t q) {
      for (int c = 0; c < 3; ++c) {
        const idx_t d = 3 * q + c;
        if (free_map[d] >= 0) {
          ff_cols[t_ff++] = free_map[d];
        } else {
          fc_cols[t_fc++] = bc_map[d];
        }
      }
    });
    for (int c = first + 1; c < 3; ++c) {
      if (rows[c] < 0) continue;
      std::copy_n(ff_cols, num_ff, ff_col.data() + ff_ptr[static_cast<std::size_t>(rows[c])]);
      std::copy_n(fc_cols, num_fc, fc_col.data() + fc_ptr[static_cast<std::size_t>(rows[c])]);
    }

    const auto& [gi, gj, gk] = grid.node_ijk(p);
    for (int by = sy.lo; by <= sy.hi; ++by) {
      for (int bx = sx.lo; bx <= sx.hi; ++bx) {
        const DenseMatrix& k =
            block_model(tsv_model, dummy_model, mask, blocks_x, bx, by).element_stiffness;
        const int ox = bx * step_x;
        const int oy = by * step_y;
        const idx_t mp = sns.index_of(gi - ox, gj - oy, gk);
        la::offset_t at_ff = 0;
        la::offset_t at_fc = 0;
        for (idx_t m = 0; m < sns.count(); ++m) {
          const auto& [i, j, kk] = sns.node_ijk(m);
          const idx_t d = 3 * grid.node_at(ox + i, oy + j, kk);
          // Each component of q: its block (K_ff or K_fc), and its slot
          // there, where that block's cursor walks forward to its column.
          bool to_ff[3];
          la::offset_t slot[3];
          for (int cq = 0; cq < 3; ++cq) {
            to_ff[cq] = free_map[d + cq] >= 0;
            if (to_ff[cq]) {
              while (ff_cols[at_ff] != free_map[d + cq]) {
                ++at_ff;
                assert(at_ff < num_ff);
              }
              slot[cq] = at_ff;
            } else {
              while (fc_cols[at_fc] != bc_map[d + cq]) {
                ++at_fc;
                assert(at_fc < num_fc);
              }
              slot[cq] = at_fc;
            }
          }
          for (int c = 0; c < 3; ++c) {
            if (ff[c] == nullptr) continue;
            const double* src =
                k.data().data() + static_cast<std::size_t>(3 * mp + c) * k.cols() + 3 * m;
            for (int cq = 0; cq < 3; ++cq) (to_ff[cq] ? ff[c] : fc[c])[slot[cq]] += src[cq];
          }
        }
      }
    }
  }
  return {CsrMatrix::from_raw(split.num_free(), split.num_free(), std::move(ff_ptr),
                              std::move(ff_col), std::move(ff_val)),
          CsrMatrix::from_raw(split.num_free(), static_cast<idx_t>(part.num_bc),
                              std::move(fc_ptr), std::move(fc_col), std::move(fc_val))};
}

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
  GlobalProblem problem;
  problem.num_dofs = grid.num_dofs();
  problem.rhs = assemble_global_rhs(grid, tsv_model, dummy_model, mask, load);
  const fem::DirichletSplit whole(problem.num_dofs, {});
  problem.stiffness = assemble_stiffness(grid, tsv_model, dummy_model, mask, whole).free;
  return problem;
}

Vec assemble_global_rhs(const BlockGrid& grid, const RomModel& tsv_model,
                        const RomModel* dummy_model, const BlockMask& mask,
                        const BlockLoadField& load) {
  MS_TRACE_SCOPE("rom.global.assemble_rhs");
  validate_inputs("assemble_global_rhs", grid, tsv_model, dummy_model, mask, false);
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
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
