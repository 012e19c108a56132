#include "fem/assembler.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace ms::fem {
namespace {

using ShapeKey = std::tuple<double, double, double, std::uint8_t>;

ShapeKey make_key(const mesh::HexMesh& mesh, idx_t elem) {
  const mesh::Point3 lo = mesh.elem_min(elem);
  const mesh::Point3 hi = mesh.elem_max(elem);
  return {hi.x - lo.x, hi.y - lo.y, hi.z - lo.z,
          static_cast<std::uint8_t>(mesh.material(elem))};
}

/// Build the exact CSR sparsity of the trilinear stencil: node (i,j,k)
/// couples to the 3x3x3 neighborhood (clipped at the boundary), three dofs
/// per node, rows and columns in ascending dof order. Values start at zero.
CsrMatrix build_structured_pattern(const mesh::HexMesh& mesh) {
  const idx_t nx = mesh.nodes_x();
  const idx_t ny = mesh.nodes_y();
  const idx_t nz = mesh.nodes_z();
  const idx_t num_nodes = mesh.num_nodes();
  const idx_t num_dofs = 3 * num_nodes;

  std::vector<la::offset_t> row_ptr(static_cast<std::size_t>(num_dofs) + 1, 0);
  // First pass: count columns per node row.
  for (idx_t k = 0; k < nz; ++k) {
    const idx_t span_k = std::min<idx_t>(k + 1, nz - 1) - std::max<idx_t>(k - 1, 0) + 1;
    for (idx_t j = 0; j < ny; ++j) {
      const idx_t span_j = std::min<idx_t>(j + 1, ny - 1) - std::max<idx_t>(j - 1, 0) + 1;
      for (idx_t i = 0; i < nx; ++i) {
        const idx_t span_i = std::min<idx_t>(i + 1, nx - 1) - std::max<idx_t>(i - 1, 0) + 1;
        const la::offset_t cols = static_cast<la::offset_t>(span_i) * span_j * span_k * 3;
        const idx_t node = mesh.node_id(i, j, k);
        for (int c = 0; c < 3; ++c) row_ptr[static_cast<std::size_t>(dof_of(node, c)) + 1] = cols;
      }
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_dofs); ++r) row_ptr[r + 1] += row_ptr[r];

  std::vector<idx_t> col_idx(static_cast<std::size_t>(row_ptr[num_dofs]));
  // Second pass: fill columns (neighbor loop order k,j,i yields ascending ids).
  for (idx_t k = 0; k < nz; ++k) {
    for (idx_t j = 0; j < ny; ++j) {
      for (idx_t i = 0; i < nx; ++i) {
        const idx_t node = mesh.node_id(i, j, k);
        la::offset_t pos = row_ptr[dof_of(node, 0)];
        const la::offset_t row_len = row_ptr[dof_of(node, 0) + 1] - pos;
        for (idx_t kk = std::max<idx_t>(k - 1, 0); kk <= std::min<idx_t>(k + 1, nz - 1); ++kk) {
          for (idx_t jj = std::max<idx_t>(j - 1, 0); jj <= std::min<idx_t>(j + 1, ny - 1); ++jj) {
            for (idx_t ii = std::max<idx_t>(i - 1, 0); ii <= std::min<idx_t>(i + 1, nx - 1); ++ii) {
              const idx_t nbr = mesh.node_id(ii, jj, kk);
              for (int c = 0; c < 3; ++c) col_idx[pos++] = dof_of(nbr, c);
            }
          }
        }
        // Rows for components 1 and 2 share the same column pattern.
        const la::offset_t begin = row_ptr[dof_of(node, 0)];
        std::copy_n(col_idx.begin() + begin, row_len, col_idx.begin() + row_ptr[dof_of(node, 1)]);
        std::copy_n(col_idx.begin() + begin, row_len, col_idx.begin() + row_ptr[dof_of(node, 2)]);
      }
    }
  }
  std::vector<double> values(col_idx.size(), 0.0);
  return CsrMatrix::from_raw(num_dofs, num_dofs, std::move(row_ptr), std::move(col_idx),
                             std::move(values));
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

AssembledSystem assemble_system(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                const Vec* delta_t_per_elem) {
  if (delta_t_per_elem != nullptr &&
      delta_t_per_elem->size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument("assemble_system: one ΔT per element required");
  }
  AssembledSystem sys;
  sys.num_dofs = 3 * mesh.num_nodes();
  sys.thermal_load.assign(sys.num_dofs, 0.0);
  sys.stiffness = build_structured_pattern(mesh);
  auto& values = sys.stiffness.values();

  struct CachedElem {
    std::array<double, kHexDofs * kHexDofs> ke;
    std::array<double, kHexDofs> fe;
  };
  std::map<ShapeKey, CachedElem> cache;

  const idx_t ne = mesh.num_elems();
  // Fill the shape cache serially (a handful of distinct element shapes) so
  // the scatter below can read it concurrently without locking.
  for (idx_t e = 0; e < ne; ++e) {
    const ShapeKey key = make_key(mesh, e);
    if (cache.find(key) == cache.end()) {
      const auto [hx, hy, hz, mat_id] = key;
      const Material& mat = materials.at(static_cast<mesh::MaterialId>(mat_id));
      cache.emplace(key, CachedElem{hex8_stiffness(mat, hx, hy, hz),
                                    hex8_thermal_load(mat, hx, hy, hz)});
    }
  }

  // Scatter in 8 parity colors (element index parity per axis): elements of
  // one color are at least two apart along some axis, so they share no node
  // and the in-color scatter is race-free. Colors run in a fixed order, so
  // every CSR slot and load entry accumulates its (at most 8) element
  // contributions in the same order regardless of thread count — the
  // parallel result is bitwise deterministic (though the element order
  // within a slot differs from the historical serial loop).
  std::array<std::vector<idx_t>, 8> colors;
  for (auto& c : colors) c.reserve(static_cast<std::size_t>(ne) / 8 + 1);
  for (idx_t e = 0; e < ne; ++e) {
    const auto ijk = mesh.elem_ijk(e);
    colors[(ijk[0] % 2) + 2 * (ijk[1] % 2) + 4 * (ijk[2] % 2)].push_back(e);
  }
  for (const std::vector<idx_t>& color : colors) {
    const std::int64_t count = static_cast<std::int64_t>(color.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::int64_t ci = 0; ci < count; ++ci) {
      const idx_t e = color[ci];
      const CachedElem& ce = cache.find(make_key(mesh, e))->second;
      const double load_scale = delta_t_per_elem != nullptr ? (*delta_t_per_elem)[e] : 1.0;

      const auto nodes = mesh.elem_nodes(e);
      std::array<idx_t, kHexDofs> dofs;
      for (int a = 0; a < kHexNodes; ++a) {
        for (int c = 0; c < 3; ++c) dofs[3 * a + c] = dof_of(nodes[a], c);
      }
      for (int i = 0; i < kHexDofs; ++i) {
        sys.thermal_load[dofs[i]] += load_scale * ce.fe[i];
        // Columns within a row group by neighbor node; find each node group
        // once and scatter its three components contiguously.
        for (int aj = 0; aj < kHexNodes; ++aj) {
          const la::offset_t slot = find_entry(sys.stiffness, dofs[i], dofs[3 * aj]);
          for (int c = 0; c < 3; ++c) values[slot + c] += ce.ke[i * kHexDofs + 3 * aj + c];
        }
      }
    }
  }
  return sys;
}

namespace {

/// Shared driver of the two thermal-load assemblers: `scale_of(e)` gives the
/// factor each element's unit load is multiplied by before scattering.
template <typename ScaleOf>
Vec assemble_scaled_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                 const ScaleOf& scale_of) {
  const idx_t num_dofs = 3 * mesh.num_nodes();
  Vec load(num_dofs, 0.0);
  std::map<ShapeKey, std::array<double, kHexDofs>> cache;
  const idx_t ne = mesh.num_elems();
  for (idx_t e = 0; e < ne; ++e) {
    const ShapeKey key = make_key(mesh, e);
    auto it = cache.find(key);
    if (it == cache.end()) {
      const auto [hx, hy, hz, mat_id] = key;
      const Material& mat = materials.at(static_cast<mesh::MaterialId>(mat_id));
      it = cache.emplace(key, hex8_thermal_load(mat, hx, hy, hz)).first;
    }
    const double scale = scale_of(e);
    if (scale == 0.0) continue;
    const auto nodes = mesh.elem_nodes(e);
    for (int a = 0; a < kHexNodes; ++a) {
      for (int c = 0; c < 3; ++c) load[dof_of(nodes[a], c)] += scale * it->second[3 * a + c];
    }
  }
  return load;
}

}  // namespace

Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials) {
  return assemble_scaled_thermal_load(mesh, materials, [](idx_t) { return 1.0; });
}

Vec assemble_thermal_load(const mesh::HexMesh& mesh, const MaterialTable& materials,
                          const Vec& delta_t_per_elem) {
  if (delta_t_per_elem.size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument("assemble_thermal_load: one ΔT per element required");
  }
  return assemble_scaled_thermal_load(mesh, materials,
                                      [&](idx_t e) { return delta_t_per_elem[e]; });
}

}  // namespace ms::fem
