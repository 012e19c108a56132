#pragma once
// The one-shot local stage (paper Sec. 4.2, Fig. 3). For one unit block:
//
//  1. mesh the block finely and assemble A_local, b_local (Eq. 11);
//  2. place (nx, ny, nz) Lagrange interpolation nodes on the surface and
//     build the boundary interpolation operator L (Eq. 8-10);
//  3. factor A_ff once (sparse Cholesky) and solve the n+1 local problems —
//     one per surface-node displacement component (f_i) plus the thermal
//     basis f_T (Eq. 13-15);
//  4. project to the reduced element matrices (Eq. 18-19) and sample each
//     basis's stress (and optionally displacement) on the mid-height plane
//     so the global stage can reconstruct fields without the fine mesh.
//
// The factorization reuse across all n+1 right-hand sides is what makes the
// local stage cheap; it is the direct analogue of the paper's one-time
// LU/Cholesky decomposition.

#include <cstdint>

#include "fem/material.hpp"
#include "rom/rom_model.hpp"

namespace ms::rom {

struct LocalStageOptions {
  int nodes_x = 4;
  int nodes_y = 4;
  int nodes_z = 4;
  int samples_per_block = 100;      ///< s: mid-plane sample grid is s x s
  bool sample_displacements = true; ///< also store per-basis displacements
  /// Verification switch: use the element load exactly as printed in the
  /// paper's Eq. 19 (b_i = f_i^T b_local) instead of the explicitly
  /// reaction-corrected form b_i = f_i^T (b_local - A_local f_T). The two are
  /// mathematically identical — a(f_i, f_T) = 0 because the f_i are interior-
  /// harmonic and f_T vanishes on the boundary — which
  /// bench/ablation_loadterm verifies to machine precision (see DESIGN.md).
  bool uncorrected_eq19_load = false;
};

/// Run the local stage for a TSV or dummy block. Deterministic; typical cost
/// is seconds at default resolution.
RomModel run_local_stage(const mesh::TsvGeometry& geometry, const mesh::BlockMeshSpec& spec,
                         const fem::MaterialTable& materials, BlockKind kind,
                         const LocalStageOptions& options);

/// Exact hash of every run_local_stage input (each field's bits, every
/// material's every field, all of `options`): the key a cached model is
/// stored and found under, and the stamp a saved model file carries. A
/// field added to any of these inputs must be folded in here too.
std::uint64_t local_stage_fingerprint(const mesh::TsvGeometry& geometry,
                                      const mesh::BlockMeshSpec& spec,
                                      const fem::MaterialTable& materials, BlockKind kind,
                                      const LocalStageOptions& options);

}  // namespace ms::rom
