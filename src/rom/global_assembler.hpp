#pragma once
// Global-stage assembly (paper Sec. 4.3): scatter each block's reduced
// element stiffness/load into the global sparse system with the standard FEM
// assembly procedure. The stiffness is written straight into the blocks the
// solve keeps after eliminating the Dirichlet data (clamped surfaces for
// standalone arrays; interpolated coarse displacements for sub-modeling):
// the free block K_ff and the coupling K_fc. Constrained rows are never
// formed.

#include <functional>
#include <string>
#include <vector>

#include "fem/dirichlet.hpp"
#include "rom/block_grid.hpp"
#include "rom/load_field.hpp"
#include "rom/rom_model.hpp"

namespace ms::rom {

using fem::DirichletBc;
using la::CsrMatrix;

/// Per-block model selection for hybrid arrays: mask[by * blocks_x + bx] is
/// 1 for a TSV block, 0 for a dummy block. Empty mask = all TSV.
using BlockMask = std::vector<std::uint8_t>;

/// The inputs every pass over the blocks of `range` reads, checked before
/// any loop indexes by them (a mismatch would be read past an array's end,
/// and inside an OpenMP region a throw terminates instead of propagating):
/// `range` lies in the grid, the mask has one entry per block, the dummy
/// model is compatible with the TSV model, every dummy block of `range` has
/// a model, the grid has the models' nodes per block axis, and each of the
/// `num_solutions` solutions holds one value per grid dof. Throws
/// std::invalid_argument prefixed with `caller`; returns whether `range`
/// holds a dummy block. Model contents (element matrices, sample shapes)
/// are each reader's own to check.
bool validate_block_inputs(const std::string& caller, const BlockGrid& grid,
                           const RomModel& tsv_model, const RomModel* dummy_model,
                           const BlockMask& mask, const BlockRange& range,
                           const Vec* solutions = nullptr, std::size_t num_solutions = 0);

struct GlobalProblem {
  CsrMatrix stiffness;
  Vec rhs;
  idx_t num_dofs = 0;
};

/// The global stiffness under `split` (of the grid's dofs, else
/// std::invalid_argument), written straight into CSR as its free block K_ff
/// and coupling K_fc: the rows of constrained dofs are never formed. Every
/// entry is the sum from zero of its blocks' element entries in ascending
/// block id, at every OpenMP team size, so both blocks are bitwise what
/// `split.extract` takes from the whole lattice, which is this writer under
/// an empty split. `dummy_model` may be null when the mask selects no dummy
/// blocks.
fem::SplitOperator assemble_stiffness(const BlockGrid& grid, const RomModel& tsv_model,
                                      const RomModel* dummy_model, const BlockMask& mask,
                                      const fem::DirichletSplit& split);

/// Assemble the unconstrained global system: the whole lattice (the writer
/// under an empty split) and the load, each block's reduced load scaled by
/// its own ΔT from `load`. The product path assembles only the split blocks;
/// this whole-lattice form serves callers that hold one matrix.
GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                              const RomModel* dummy_model, const BlockMask& mask,
                              const BlockLoadField& load);

/// Assemble only the load vector for `load` on an already-assembled global
/// problem's grid: the reduced stiffness does not depend on the per-block
/// ΔT, so solving many load cases (e.g. transient snapshots) against one
/// factorization needs one stiffness assembly plus one of these per case.
Vec assemble_global_rhs(const BlockGrid& grid, const RomModel& tsv_model,
                        const RomModel* dummy_model, const BlockMask& mask,
                        const BlockLoadField& load);

/// Scalar-ΔT convenience (the paper's uniform reflow load).
inline GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                                     const RomModel* dummy_model, const BlockMask& mask,
                                     double thermal_load) {
  return assemble_global(grid, tsv_model, dummy_model, mask,
                         BlockLoadField::uniform(thermal_load));
}

/// Clamped top/bottom condition of scenario 1 (all components zero).
DirichletBc clamp_top_bottom(const BlockGrid& grid);

/// Sub-modeling condition: prescribe every outer-boundary node to the value
/// of `displacement(p)` (e.g. interpolated from a coarse package solution).
DirichletBc submodel_boundary(const BlockGrid& grid,
                              const std::function<std::array<double, 3>(const mesh::Point3&)>&
                                  displacement);

}  // namespace ms::rom
