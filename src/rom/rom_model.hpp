#pragma once
// The reduced order model of one unit block — the artifact the one-shot
// local stage produces (paper Fig. 3(d)) and the global stage consumes.
// Holds the reduced element matrices (Eq. 18-19) and per-basis field samples
// on the mid-height cut plane so stress can be reconstructed as a linear
// combination (Eq. 15) without touching the fine mesh again.

#include <cstdint>
#include <string>

#include "la/dense.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/surface_nodes.hpp"

namespace ms::rom {

using la::DenseMatrix;
using la::Vec;

/// Which physical block a model describes.
enum class BlockKind : std::uint8_t {
  Tsv = 0,    ///< copper via + liner + silicon
  Dummy = 1,  ///< pure silicon (sub-modeling padding, Sec. 4.4)
};

struct RomModel {
  // --- provenance -----------------------------------------------------------
  BlockKind kind = BlockKind::Tsv;
  mesh::TsvGeometry geometry;
  mesh::BlockMeshSpec mesh_spec;
  int nodes_x = 4, nodes_y = 4, nodes_z = 4;  ///< (nx, ny, nz) interpolation nodes
  int samples_per_block = 100;                ///< s: plane sample resolution

  // --- reduced model (Eq. 18-19) --------------------------------------------
  /// n x n reduced element stiffness, n = surface-node dofs (Eq. 16).
  DenseMatrix element_stiffness;
  /// n reduced element load per unit thermal load, reaction-corrected:
  /// b_i = f_i^T (b_local - A_local f_T)  (see DESIGN.md on Eq. 19).
  Vec element_load;

  // --- field reconstruction (Eq. 15) ----------------------------------------
  /// (6 * s^2) x (n + 1) stress samples of each basis on the mid-height
  /// plane; column n is the thermal basis f_T (per unit thermal load).
  /// Row layout: sample-major, y-major over samples, 6 Voigt rows together.
  DenseMatrix stress_samples;
  /// (3 * s^2) x (n + 1) displacement samples (same layout, 3 rows/sample);
  /// empty if displacement sampling was disabled.
  DenseMatrix displacement_samples;
  /// (2 * s^2) x (n + 1) through-plane shear samples (rows s_yz, s_xz per
  /// point, same sample ordering) on the bump plane — the centre of the
  /// bottom element layer, z = height / (2 elems_z), just above the clamped
  /// z = 0 face. Feeds the bump-shear fatigue channel with real bump-plane
  /// tractions instead of the mid-plane proxy.
  DenseMatrix bump_shear_samples;

  // --- diagnostics ------------------------------------------------------------
  idx_t fine_mesh_dofs = 0;      ///< DoFs of the fine unit-block mesh
  double local_stage_seconds = 0.0;

  /// Surface-node set matching (nodes_x, nodes_y, nodes_z) and the geometry.
  [[nodiscard]] SurfaceNodeSet surface_nodes() const;

  /// Number of element DoFs n (Eq. 16).
  [[nodiscard]] idx_t num_element_dofs() const;

  /// Resident bytes of the dense payloads (for the memory ledger).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Binary (de)serialization; enables "perform the local stage once, reuse
  /// forever". The header stamps the local_stage_fingerprint of the inputs
  /// the model was built from, and load throws std::runtime_error on I/O
  /// failure, a format mismatch, or a file stamped for other inputs.
  void save(const std::string& path, std::uint64_t fingerprint) const;
  static RomModel load(const std::string& path, std::uint64_t fingerprint);

  /// Two models are compatible for hybrid assembly (TSV + dummy in one
  /// array) when geometry, mesh spec, and node counts agree.
  [[nodiscard]] bool compatible_with(const RomModel& other) const;
};

}  // namespace ms::rom
