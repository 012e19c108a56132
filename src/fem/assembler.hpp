#pragma once
// The one hex-mesh assembler: the thermoelastic system K u = DT * f (paper
// Eq. 6) and thermal/'s conduction and capacitance operators share one CSR
// pattern and one colour scatter of element terms memoized by key (the
// structured, per-block-periodic meshes here carry only a handful of
// distinct elements). DoF numbering: dof = dofs_per_node * node + component.

#include <cstdint>
#include <map>
#include <vector>

#include "fem/hex8.hpp"
#include "la/ordering.hpp"
#include "la/sparse.hpp"
#include "mesh/hex_mesh.hpp"

namespace ms::fem {

using la::CsrMatrix;
using la::idx_t;
using la::Vec;

/// DoF helpers.
inline idx_t dof_of(idx_t node, int component) { return 3 * node + component; }
inline idx_t node_of(idx_t dof) { return dof / 3; }
inline int component_of(idx_t dof) { return static_cast<int>(dof % 3); }

/// The fill-reducing order of a stiffness assembled on `mesh`: the mesh's
/// nested dissection, three dofs per node as dof_of numbers them.
la::Permutation stiffness_order(const mesh::HexMesh& mesh);

/// The exact CSR sparsity of the trilinear stencil: node (i,j,k) couples to
/// its 3x3x3 neighbourhood (clipped at the boundary), `dofs_per_node` (1 or
/// 3) dofs per node, columns ascending. Values start at zero.
CsrMatrix mesh_pattern(const mesh::HexMesh& mesh, int dofs_per_node);

/// Element terms memoized by key: element e reads matrix and vector number
/// kind[e], (8 d)^2 row-major and 8 d values (d = dofs_per_node); either
/// list is empty when not assembled.
struct ElementTerms {
  int dofs_per_node = 1;
  std::vector<double> matrices;
  std::vector<double> vectors;
  std::vector<std::uint32_t> kind;
};

/// Memoize the element terms of `mesh`: `key_of(e)` names element e's terms
/// by an ordered key, and `append(key, terms)` appends one kind's matrix
/// and/or vector to `terms`, once per distinct key, in first-seen order.
template <typename KeyOf, typename Append>
ElementTerms memoize_elements(const mesh::HexMesh& mesh, int dofs_per_node, const KeyOf& key_of,
                              const Append& append) {
  ElementTerms terms;
  terms.dofs_per_node = dofs_per_node;
  terms.kind.resize(static_cast<std::size_t>(mesh.num_elems()));
  std::map<decltype(key_of(idx_t{})), std::uint32_t> index;
  for (idx_t e = 0; e < mesh.num_elems(); ++e) {
    const auto [it, inserted] = index.emplace(key_of(e), static_cast<std::uint32_t>(index.size()));
    if (inserted) append(it->first, terms);
    terms.kind[e] = it->second;
  }
  return terms;
}

/// Add every element's matrix into `*matrix` (on mesh_pattern(mesh,
/// terms.dofs_per_node)) and its vector, times `(*vector_scale)[e]` when
/// given, into `*vector`; a null target is skipped. The eight parity colours
/// (element index parity per axis) run in a fixed order, each split across
/// the OpenMP team; elements of one colour share no node, so every entry
/// sums in colour order and the result is bitwise the same at every team
/// size.
void scatter(const mesh::HexMesh& mesh, const ElementTerms& terms, CsrMatrix* matrix,
             Vec* vector, const Vec* vector_scale = nullptr);

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

/// Thermal-load vector for a per-element ΔT field (size num_elems): each
/// element's unit load is scaled by its own ΔT before scattering, bitwise
/// the load assemble_system builds for the same field. The brute-force
/// reference for ROM runs driven by a non-uniform BlockLoadField.
Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials,
                          const Vec& delta_t_per_elem);

}  // namespace ms::fem
