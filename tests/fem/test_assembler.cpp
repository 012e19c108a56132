#include "fem/assembler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "chiplet/package_model.hpp"
#include "chiplet/package_thermal.hpp"
#include "mesh/grading.hpp"
#include "mesh/tsv_block.hpp"
#include "thermal/conduction.hpp"
#include "util/team_size_scope.hpp"

namespace ms::fem {
namespace {

mesh::HexMesh box_mesh(int nx, int ny, int nz, double lx = 1.0, double ly = 1.0, double lz = 1.0) {
  return mesh::HexMesh(mesh::uniform_coords(0.0, lx, nx), mesh::uniform_coords(0.0, ly, ny),
                       mesh::uniform_coords(0.0, lz, nz));
}

TEST(Assembler, SystemShape) {
  const mesh::HexMesh m = box_mesh(2, 2, 2);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  EXPECT_EQ(sys.num_dofs, 3 * m.num_nodes());
  EXPECT_EQ(sys.stiffness.rows(), sys.num_dofs);
  EXPECT_EQ(static_cast<idx_t>(sys.thermal_load.size()), sys.num_dofs);
}

TEST(Assembler, StiffnessIsSymmetric) {
  const mesh::HexMesh m = box_mesh(3, 2, 2);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  EXPECT_LT(sys.stiffness.symmetry_error(), 1e-8);
}

TEST(Assembler, RigidTranslationInKernel) {
  const mesh::HexMesh m = box_mesh(3, 3, 2);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  for (int c = 0; c < 3; ++c) {
    Vec t(sys.num_dofs, 0.0);
    for (idx_t node = 0; node < m.num_nodes(); ++node) t[dof_of(node, c)] = 1.0;
    Vec kt;
    sys.stiffness.mul(t, kt);
    EXPECT_LT(la::norm_inf(kt), 1e-7) << "component " << c;
  }
}

TEST(Assembler, ThermalLoadIsSelfEquilibrated) {
  const mesh::HexMesh m = box_mesh(3, 2, 4, 2.0, 1.0, 3.0);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  for (int c = 0; c < 3; ++c) {
    double net = 0.0;
    for (idx_t node = 0; node < m.num_nodes(); ++node) net += sys.thermal_load[dof_of(node, c)];
    EXPECT_NEAR(net, 0.0, 1e-8);
  }
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Assembler, ThermalLoadOnlyPathMatchesFullAssembly) {
  mesh::HexMesh m = box_mesh(3, 3, 2);
  m.set_material(0, mesh::MaterialId::Copper);
  m.set_material(3, mesh::MaterialId::Liner);
  const MaterialTable table = MaterialTable::standard();
  const AssembledSystem sys = assemble_system(m, table);
  const Vec load = assemble_thermal_load(m, table, Vec(static_cast<std::size_t>(m.num_elems()), 1.0));
  EXPECT_TRUE(same_bits(sys.thermal_load, load));
}

/// The scatter's summation order, serially: the eight parity colours
/// (i%2 + 2 (j%2) + 4 (k%2)) in turn, element ids ascending within a colour.
/// Each element adds its matrix (n = 8 d rows, d dofs per node) into the
/// values of `pattern` and, when `vector_of` is given, its vector times
/// `scale[e]` (1 when empty) into `vector`.
template <typename MatrixOf, typename VectorOf>
void colour_order_sum(const mesh::HexMesh& mesh, int d, const CsrMatrix& pattern,
                      const MatrixOf& matrix_of, const VectorOf& vector_of, const Vec& scale,
                      Vec& values, Vec& vector) {
  const int n = kHexNodes * d;
  values.assign(pattern.values().size(), 0.0);
  vector.assign(static_cast<std::size_t>(d * mesh.num_nodes()), 0.0);
  for (int colour = 0; colour < 8; ++colour) {
    for (idx_t e = 0; e < mesh.num_elems(); ++e) {
      const auto ijk = mesh.elem_ijk(e);
      if ((ijk[0] % 2) + 2 * (ijk[1] % 2) + 4 * (ijk[2] % 2) != colour) continue;
      const auto nodes = mesh.elem_nodes(e);
      const auto ke = matrix_of(e);
      const auto fe = vector_of(e);
      for (int i = 0; i < n; ++i) {
        const idx_t row = d * nodes[i / d] + i % d;
        if (!fe.empty()) vector[row] += (scale.empty() ? 1.0 : scale[e]) * fe[i];
        for (int j = 0; j < n; ++j) {
          const idx_t col = d * nodes[j / d] + j % d;
          const auto first = pattern.col_idx().begin() + pattern.row_ptr()[row];
          const auto last = pattern.col_idx().begin() + pattern.row_ptr()[row + 1];
          const auto slot = std::lower_bound(first, last, col);
          values[slot - pattern.col_idx().begin()] += ke[i * n + j];
        }
      }
    }
  }
}

TEST(Assembler, ColourScatterIsBitwiseAtEveryTeamSize) {
  // The one hex-mesh scatter against its serial colour-order sum, by memcmp,
  // at team sizes 1-4: assemble_system's K and f on a TSV block mesh under
  // the unit load and a seeded per-element ΔT (and assemble_thermal_load's f
  // for that field), and the conduction K with the z-min film on the
  // package mesh at loc1.
  const MaterialTable table = MaterialTable::standard();
  const mesh::TsvGeometry tsv;
  const mesh::HexMesh block = mesh::build_tsv_block_mesh(tsv, {8, 6});
  Vec delta_t(static_cast<std::size_t>(block.num_elems()));
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> draw(-250.0, 40.0);
  for (double& v : delta_t) v = draw(rng);
  const auto elem_edges = [](const mesh::HexMesh& m, idx_t e) {
    const mesh::Point3 lo = m.elem_min(e);
    const mesh::Point3 hi = m.elem_max(e);
    return std::array<double, 3>{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  };
  const auto elastic_ke = [&](idx_t e) {
    const auto [hx, hy, hz] = elem_edges(block, e);
    return hex8_stiffness(table.at(block.material(e)), hx, hy, hz);
  };
  const auto elastic_fe = [&](idx_t e) {
    const auto [hx, hy, hz] = elem_edges(block, e);
    return hex8_thermal_load(table.at(block.material(e)), hx, hy, hz);
  };
  const CsrMatrix elastic_pattern = mesh_pattern(block, 3);
  Vec k_expected, f_unit, f_field;
  colour_order_sum(block, 3, elastic_pattern, elastic_ke, elastic_fe, {}, k_expected, f_unit);
  colour_order_sum(block, 3, elastic_pattern, elastic_ke, elastic_fe, delta_t, k_expected,
                   f_field);

  const int padded = 6;
  const chiplet::PackageGeometry geometry =
      chiplet::demo_package_geometry(tsv.pitch, padded, tsv.height);
  chiplet::PackageThermalSpec spec;
  spec.elems_z_interposer = 8;
  const chiplet::PackageThermalModel package = chiplet::build_package_thermal_model(
      geometry, tsv, chiplet::standard_locations(geometry, tsv.pitch, padded, padded).front(),
      mesh::padded_tsv_mask(padded, padded, 1), table, spec);
  const mesh::HexMesh& pm = package.mesh;
  const double film = 1.0e5;
  Vec conduction_expected, unused;
  colour_order_sum(
      pm, 1, mesh_pattern(pm, 1),
      [&](idx_t e) {
        const auto [hx, hy, hz] = elem_edges(pm, e);
        auto ke = thermal::hex8_conduction_stiffness(package.conductivity.in_plane[e],
                                                     package.conductivity.in_plane[e],
                                                     package.conductivity.through_plane[e], hx,
                                                     hy, hz);
        if (e < pm.elems_x() * pm.elems_y()) {
          const auto me = thermal::hex8_face_film_matrix(film, hx, hy, /*face=*/0);
          for (std::size_t i = 0; i < ke.size(); ++i) ke[i] += me[i];
        }
        return ke;
      },
      [](idx_t) { return std::array<double, 0>{}; }, {}, conduction_expected, unused);

  for (const int threads : {1, 2, 3, 4}) {
    const testutil::TeamSizeScope team(threads);
    const std::string where = "team " + std::to_string(threads);
    const AssembledSystem unit = assemble_system(block, table);
    EXPECT_TRUE(same_bits(unit.stiffness.values(), k_expected)) << where;
    EXPECT_TRUE(same_bits(unit.thermal_load, f_unit)) << where;
    const AssembledSystem field = assemble_system(block, table, &delta_t);
    EXPECT_TRUE(same_bits(field.stiffness.values(), k_expected)) << where;
    EXPECT_TRUE(same_bits(field.thermal_load, f_field)) << where;
    EXPECT_TRUE(same_bits(assemble_thermal_load(block, table, delta_t), f_field)) << where;
    const CsrMatrix k = thermal::assemble_conduction(pm, package.conductivity, film);
    EXPECT_TRUE(same_bits(k.values(), conduction_expected)) << where;
  }
}

TEST(Assembler, MixedMaterialsChangeStiffness) {
  mesh::HexMesh soft = box_mesh(2, 2, 2);
  mesh::HexMesh hard = box_mesh(2, 2, 2);
  hard.set_material(0, mesh::MaterialId::Copper);
  const MaterialTable table = MaterialTable::standard();
  const AssembledSystem a = assemble_system(soft, table);
  const AssembledSystem b = assemble_system(hard, table);
  // Same sparsity, different values.
  EXPECT_EQ(a.stiffness.nnz(), b.stiffness.nnz());
  double diff = 0.0;
  for (std::size_t k = 0; k < a.stiffness.values().size(); ++k) {
    diff = std::max(diff, std::fabs(a.stiffness.values()[k] - b.stiffness.values()[k]));
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Assembler, StencilPatternHas81ColumnsInterior) {
  const mesh::HexMesh m = box_mesh(4, 4, 4);
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  // An interior node couples with its full 3x3x3 neighborhood x 3 components.
  const idx_t interior = m.node_id(2, 2, 2);
  const idx_t row = dof_of(interior, 0);
  EXPECT_EQ(sys.stiffness.row_ptr()[row + 1] - sys.stiffness.row_ptr()[row], 81);
  // A corner node couples with 2x2x2 x 3 = 24 columns.
  const idx_t corner_row = dof_of(m.node_id(0, 0, 0), 1);
  EXPECT_EQ(sys.stiffness.row_ptr()[corner_row + 1] - sys.stiffness.row_ptr()[corner_row], 24);
}

TEST(Assembler, TsvBlockAssembles) {
  const mesh::TsvGeometry g{15.0, 5.0, 0.5, 50.0};
  const mesh::HexMesh m = mesh::build_tsv_block_mesh(g, {8, 4});
  const AssembledSystem sys = assemble_system(m, MaterialTable::standard());
  EXPECT_LT(sys.stiffness.symmetry_error(), 1e-7);
  EXPECT_GT(la::norm_inf(sys.thermal_load), 0.0);
}

}  // namespace
}  // namespace ms::fem
