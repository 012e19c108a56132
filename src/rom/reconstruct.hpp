#pragma once
// Field reconstruction (paper Eq. 15): within each block, displacement and
// stress are linear combinations of the precomputed per-basis samples with
// the block's nodal solution values plus the thermal column scaled by ΔT.
// Sample positions coincide exactly with fem::make_block_plane_grid, so ROM
// and reference fields compare point-for-point.

#include <string>

#include "fem/stress.hpp"
#include "rom/block_grid.hpp"
#include "rom/global_assembler.hpp"
#include "rom/rom_model.hpp"

namespace ms::rom {

/// The shape check every reader of a sample matrix runs before indexing
/// it: `samples` of the TSV model, and of `dummy_model` unless null, must
/// hold `rows_per_point` rows per sample point and one column per
/// coefficient, (rows_per_point * s^2) x (n + 1) with the TSV model's s and
/// n. Throws std::logic_error prefixed with `caller`: a model built without
/// those samples, or for another shape, is an internal defect, not a bad
/// input.
void require_samples(const std::string& caller, const RomModel& tsv_model,
                     const RomModel* dummy_model, DenseMatrix RomModel::*samples,
                     int rows_per_point, const char* what);

/// Mid-plane von Mises field over `range`, y-major with s samples per block
/// (same ordering as fem::sample_plane_stress on the region's plane grid).
/// Each block's thermal column is scaled by its own ΔT from `load`.
std::vector<double> reconstruct_plane_von_mises(const BlockGrid& grid, const RomModel& tsv_model,
                                                const RomModel* dummy_model, const BlockMask& mask,
                                                const Vec& u, const BlockLoadField& load,
                                                const BlockRange& range);

/// Full Voigt stress tensors on the same grid.
std::vector<fem::Stress6> reconstruct_plane_stress(const BlockGrid& grid,
                                                   const RomModel& tsv_model,
                                                   const RomModel* dummy_model,
                                                   const BlockMask& mask, const Vec& u,
                                                   const BlockLoadField& load,
                                                   const BlockRange& range);

/// Mid-plane displacement vectors (requires displacement sampling enabled in
/// the local stage); layout matches the stress variants, 3 values per point.
std::vector<std::array<double, 3>> reconstruct_plane_displacement(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range);

/// Through-plane shear pairs (s_yz, s_xz) on the bump plane (the local
/// stage's second sample plane at z = height / (2 elems_z)); layout matches
/// the stress variants, 2 values per point. Requires a model with
/// bump_shear_samples (throws std::logic_error on pre-bump-plane models).
std::vector<std::array<double, 2>> reconstruct_bump_plane_shear(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range);

// Scalar-ΔT conveniences (the paper's uniform reflow load).
inline std::vector<double> reconstruct_plane_von_mises(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, double thermal_load, const BlockRange& range) {
  return reconstruct_plane_von_mises(grid, tsv_model, dummy_model, mask, u,
                                     BlockLoadField::uniform(thermal_load), range);
}
inline std::vector<fem::Stress6> reconstruct_plane_stress(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, double thermal_load, const BlockRange& range) {
  return reconstruct_plane_stress(grid, tsv_model, dummy_model, mask, u,
                                  BlockLoadField::uniform(thermal_load), range);
}
inline std::vector<std::array<double, 3>> reconstruct_plane_displacement(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, double thermal_load, const BlockRange& range) {
  return reconstruct_plane_displacement(grid, tsv_model, dummy_model, mask, u,
                                        BlockLoadField::uniform(thermal_load), range);
}

}  // namespace ms::rom
