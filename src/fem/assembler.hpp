#pragma once
// Global assembly of the thermoelastic system K u = DT * f over a HexMesh
// (paper Eq. 6). DoF numbering: dof = 3 * node + component. Element matrices
// are cached by (edge lengths, material) — on the structured, per-block-
// periodic meshes used here only a handful of distinct element shapes exist,
// which makes assembly of even the 50x50-array reference mesh cheap.

#include "fem/hex8.hpp"
#include "la/ordering.hpp"
#include "la/sparse.hpp"
#include "mesh/hex_mesh.hpp"

namespace ms::fem {

using la::CsrMatrix;
using la::idx_t;
using la::TripletList;
using la::Vec;

/// DoF helpers.
inline idx_t dof_of(idx_t node, int component) { return 3 * node + component; }
inline idx_t node_of(idx_t dof) { return dof / 3; }
inline int component_of(idx_t dof) { return static_cast<int>(dof % 3); }

/// The fill-reducing order of a stiffness assembled on `mesh`: the mesh's
/// nested dissection, three dofs per node as dof_of numbers them.
la::Permutation stiffness_order(const mesh::HexMesh& mesh);

struct AssembledSystem {
  CsrMatrix stiffness;   ///< K, full symmetric storage
  Vec thermal_load;      ///< f for unit thermal load (scale by DT)
  idx_t num_dofs = 0;
};

/// Assemble stiffness and thermal-load vector for the whole mesh in one
/// element pass. With the default null `delta_t_per_elem` the load is the
/// unit-ΔT vector (scale by ΔT); otherwise each element's contribution is
/// scaled by its own ΔT and the load is ready to use as the rhs.
AssembledSystem assemble_system(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                const Vec* delta_t_per_elem = nullptr);

/// Assemble only the unit-thermal-load vector (used when K is reused).
Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials);

/// Thermal-load vector for a per-element ΔT field (size num_elems): each
/// element's unit load is scaled by its own ΔT before scattering. The
/// brute-force reference for ROM runs driven by a non-uniform BlockLoadField.
Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials,
                          const Vec& delta_t_per_elem);

}  // namespace ms::fem
