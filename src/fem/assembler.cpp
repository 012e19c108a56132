#include "fem/assembler.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <tuple>

namespace ms::fem {
namespace {

/// An elastic element's terms depend on its edge lengths and material.
using ShapeKey = std::tuple<double, double, double, std::uint8_t>;

/// The elastic element terms of `mesh`: stiffness and unit thermal load
/// (either may be left out).
ElementTerms elastic_terms(const mesh::HexMesh& mesh, const MaterialTable& materials,
                           bool stiffness, bool load) {
  return memoize_elements(
      mesh, 3,
      [&](idx_t e) {
        const mesh::Point3 lo = mesh.elem_min(e);
        const mesh::Point3 hi = mesh.elem_max(e);
        return ShapeKey{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z,
                        static_cast<std::uint8_t>(mesh.material(e))};
      },
      [&](const ShapeKey& key, ElementTerms& terms) {
        const auto [hx, hy, hz, mat_id] = key;
        const Material& mat = materials.at(static_cast<mesh::MaterialId>(mat_id));
        if (stiffness) {
          const auto ke = hex8_stiffness(mat, hx, hy, hz);
          terms.matrices.insert(terms.matrices.end(), ke.begin(), ke.end());
        }
        if (load) {
          const auto fe = hex8_thermal_load(mat, hx, hy, hz);
          terms.vectors.insert(terms.vectors.end(), fe.begin(), fe.end());
        }
      });
}

/// Index of column `col` within CSR row `row` (must exist).
inline la::offset_t find_entry(const CsrMatrix& a, idx_t row, idx_t col) {
  const la::offset_t begin = a.row_ptr()[row];
  const la::offset_t end = a.row_ptr()[static_cast<std::size_t>(row) + 1];
  const auto first = a.col_idx().begin() + begin;
  const auto last = a.col_idx().begin() + end;
  const auto it = std::lower_bound(first, last, col);
  return begin + (it - first);
}

}  // namespace

la::Permutation stiffness_order(const mesh::HexMesh& mesh) {
  return la::grid_nested_dissection(mesh.nodes_x(), mesh.nodes_y(), mesh.nodes_z(), 3);
}

CsrMatrix mesh_pattern(const mesh::HexMesh& mesh, int dofs_per_node) {
  const idx_t d = dofs_per_node;
  const idx_t nx = mesh.nodes_x();
  const idx_t ny = mesh.nodes_y();
  const idx_t nz = mesh.nodes_z();
  const idx_t num_dofs = d * mesh.num_nodes();

  std::vector<la::offset_t> row_ptr(static_cast<std::size_t>(num_dofs) + 1, 0);
  // First pass: count columns per node row.
  for (idx_t k = 0; k < nz; ++k) {
    const idx_t span_k = std::min<idx_t>(k + 1, nz - 1) - std::max<idx_t>(k - 1, 0) + 1;
    for (idx_t j = 0; j < ny; ++j) {
      const idx_t span_j = std::min<idx_t>(j + 1, ny - 1) - std::max<idx_t>(j - 1, 0) + 1;
      for (idx_t i = 0; i < nx; ++i) {
        const idx_t span_i = std::min<idx_t>(i + 1, nx - 1) - std::max<idx_t>(i - 1, 0) + 1;
        const la::offset_t cols = static_cast<la::offset_t>(span_i) * span_j * span_k * d;
        const idx_t node = mesh.node_id(i, j, k);
        for (idx_t c = 0; c < d; ++c) row_ptr[static_cast<std::size_t>(d * node + c) + 1] = cols;
      }
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_dofs); ++r) row_ptr[r + 1] += row_ptr[r];

  std::vector<idx_t> col_idx(static_cast<std::size_t>(row_ptr[num_dofs]));
  // Second pass: fill columns (neighbour loop order k,j,i yields ascending ids).
  for (idx_t k = 0; k < nz; ++k) {
    for (idx_t j = 0; j < ny; ++j) {
      for (idx_t i = 0; i < nx; ++i) {
        const idx_t node = mesh.node_id(i, j, k);
        const la::offset_t begin = row_ptr[d * node];
        la::offset_t pos = begin;
        for (idx_t kk = std::max<idx_t>(k - 1, 0); kk <= std::min<idx_t>(k + 1, nz - 1); ++kk) {
          for (idx_t jj = std::max<idx_t>(j - 1, 0); jj <= std::min<idx_t>(j + 1, ny - 1); ++jj) {
            for (idx_t ii = std::max<idx_t>(i - 1, 0); ii <= std::min<idx_t>(i + 1, nx - 1); ++ii) {
              const idx_t nbr = mesh.node_id(ii, jj, kk);
              for (idx_t c = 0; c < d; ++c) col_idx[pos++] = d * nbr + c;
            }
          }
        }
        // The node's other component rows share the same column pattern.
        for (idx_t c = 1; c < d; ++c) {
          std::copy_n(col_idx.begin() + begin, pos - begin,
                      col_idx.begin() + row_ptr[d * node + c]);
        }
      }
    }
  }
  std::vector<double> values(col_idx.size(), 0.0);
  return CsrMatrix::from_raw(num_dofs, num_dofs, std::move(row_ptr), std::move(col_idx),
                             std::move(values));
}

void scatter(const mesh::HexMesh& mesh, const ElementTerms& terms, CsrMatrix* matrix,
             Vec* vector, const Vec* vector_scale) {
  const int d = terms.dofs_per_node;
  const int n = kHexNodes * d;
  const idx_t ne = mesh.num_elems();
  assert(matrix == nullptr || terms.matrices.size() >= static_cast<std::size_t>(n) * n);
  assert(vector == nullptr || terms.vectors.size() >= static_cast<std::size_t>(n));
  double* values = matrix != nullptr ? matrix->values().data() : nullptr;
  std::array<std::vector<idx_t>, 8> colours;
  for (auto& c : colours) c.reserve(static_cast<std::size_t>(ne) / 8 + 1);
  for (idx_t e = 0; e < ne; ++e) {
    const auto ijk = mesh.elem_ijk(e);
    colours[(ijk[0] % 2) + 2 * (ijk[1] % 2) + 4 * (ijk[2] % 2)].push_back(e);
  }
  for (const std::vector<idx_t>& colour : colours) {
    const std::int64_t count = static_cast<std::int64_t>(colour.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::int64_t ci = 0; ci < count; ++ci) {
      const idx_t e = colour[ci];
      const std::size_t kind = terms.kind[e];
      const double scale = vector_scale != nullptr ? (*vector_scale)[e] : 1.0;
      const auto nodes = mesh.elem_nodes(e);
      for (int i = 0; i < n; ++i) {
        const idx_t row = d * nodes[i / d] + i % d;
        if (vector != nullptr) (*vector)[row] += scale * terms.vectors[kind * n + i];
        if (values == nullptr) continue;
        // Columns within a row group by neighbour node; find each node group
        // once and scatter its components contiguously.
        const double* ke = &terms.matrices[(kind * n + i) * n];
        for (int aj = 0; aj < kHexNodes; ++aj) {
          const la::offset_t slot = find_entry(*matrix, row, d * nodes[aj]);
          for (int c = 0; c < d; ++c) values[slot + c] += ke[d * aj + c];
        }
      }
    }
  }
}

AssembledSystem assemble_system(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                const Vec* delta_t_per_elem) {
  if (delta_t_per_elem != nullptr &&
      delta_t_per_elem->size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument("assemble_system: one ΔT per element required");
  }
  AssembledSystem sys;
  sys.num_dofs = 3 * mesh.num_nodes();
  sys.thermal_load.assign(sys.num_dofs, 0.0);
  sys.stiffness = mesh_pattern(mesh, 3);
  scatter(mesh, elastic_terms(mesh, materials, true, true), &sys.stiffness, &sys.thermal_load,
          delta_t_per_elem);
  return sys;
}

Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials,
                          const Vec& delta_t_per_elem) {
  if (delta_t_per_elem.size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument("assemble_thermal_load: one ΔT per element required");
  }
  Vec load(static_cast<std::size_t>(3 * mesh.num_nodes()), 0.0);
  scatter(mesh, elastic_terms(mesh, materials, false, true), nullptr, &load, &delta_t_per_elem);
  return load;
}

}  // namespace ms::fem
