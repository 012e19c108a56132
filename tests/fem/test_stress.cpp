#include "fem/stress.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fem/assembler.hpp"
#include "mesh/grading.hpp"

namespace ms::fem {
namespace {

mesh::HexMesh box_mesh(int n, double l = 1.0) {
  const auto c = mesh::uniform_coords(0.0, l, n);
  return mesh::HexMesh(c, c, c);
}

TEST(VonMises, KnownValues) {
  EXPECT_DOUBLE_EQ(von_mises({0, 0, 0, 0, 0, 0}), 0.0);
  // Pure hydrostatic stress has zero von Mises.
  EXPECT_NEAR(von_mises({5, 5, 5, 0, 0, 0}), 0.0, 1e-12);
  // Uniaxial: von Mises equals the axial stress.
  EXPECT_NEAR(von_mises({100, 0, 0, 0, 0, 0}), 100.0, 1e-12);
  // Pure shear tau: sqrt(3) tau.
  EXPECT_NEAR(von_mises({0, 0, 0, 0, 0, 10}), 10.0 * std::sqrt(3.0), 1e-12);
}

TEST(StrainAt, LinearDisplacementGivesExactStrain) {
  const mesh::HexMesh m = box_mesh(3);
  Vec u(3 * m.num_nodes());
  // u = (0.01 x, -0.02 y, 0.03 z) -> eps = diag(0.01, -0.02, 0.03).
  for (la::idx_t node = 0; node < m.num_nodes(); ++node) {
    const mesh::Point3 p = m.node_pos(node);
    u[dof_of(node, 0)] = 0.01 * p.x;
    u[dof_of(node, 1)] = -0.02 * p.y;
    u[dof_of(node, 2)] = 0.03 * p.z;
  }
  const Stress6 eps = strain_at(m, u, {0.4, 0.5, 0.6});
  EXPECT_NEAR(eps[0], 0.01, 1e-13);
  EXPECT_NEAR(eps[1], -0.02, 1e-13);
  EXPECT_NEAR(eps[2], 0.03, 1e-13);
  EXPECT_NEAR(eps[3], 0.0, 1e-13);
}

TEST(StressAt, FreeThermalExpansionGivesZeroStress) {
  // With u = alpha DT x (pure thermal dilation), sigma must vanish.
  const mesh::HexMesh m = box_mesh(2);
  const MaterialTable table = MaterialTable::standard();
  const Material& si = table.at(mesh::MaterialId::Silicon);
  const double dt = -250.0;
  Vec u(3 * m.num_nodes());
  for (la::idx_t node = 0; node < m.num_nodes(); ++node) {
    const mesh::Point3 p = m.node_pos(node);
    u[dof_of(node, 0)] = si.cte * dt * p.x;
    u[dof_of(node, 1)] = si.cte * dt * p.y;
    u[dof_of(node, 2)] = si.cte * dt * p.z;
  }
  const Stress6 sigma = stress_at(m, table, u, dt, {0.3, 0.7, 0.5});
  for (int r = 0; r < kVoigt; ++r) EXPECT_NEAR(sigma[r], 0.0, 1e-9) << r;
}

TEST(StressAt, FullyConstrainedThermalStressIsAnalytic) {
  // u = 0 with thermal load DT: sigma = -DT alpha (3 lambda + 2 mu) I.
  const mesh::HexMesh m = box_mesh(2);
  const MaterialTable table = MaterialTable::standard();
  const Material& si = table.at(mesh::MaterialId::Silicon);
  const double dt = -250.0;
  const Vec u(3 * m.num_nodes(), 0.0);
  const Stress6 sigma = stress_at(m, table, u, dt, {0.5, 0.5, 0.5});
  const double expected = -dt * si.thermal_modulus();
  for (int r = 0; r < 3; ++r) EXPECT_NEAR(sigma[r], expected, 1e-9);
  for (int r = 3; r < 6; ++r) EXPECT_NEAR(sigma[r], 0.0, 1e-12);
  EXPECT_NEAR(von_mises(sigma), 0.0, 1e-9);  // hydrostatic
}

TEST(StressAt, RejectsDisplacementOfOtherLength) {
  // Every evaluation entry point checks that u holds three values per node
  // before it reads one: a displacement one node short throws instead of
  // reading past its end.
  const mesh::HexMesh m = box_mesh(2);
  const MaterialTable table = MaterialTable::standard();
  const Vec u(3 * (m.num_nodes() - 1), 0.0);
  const Vec delta_t(static_cast<std::size_t>(m.num_elems()), -250.0);
  const mesh::Point3 p{0.5, 0.5, 0.5};
  const PlaneGrid grid = make_block_plane_grid(1.0, 1, 1, 2, 0.5);
  EXPECT_THROW(stress_at(m, table, u, -250.0, p), std::invalid_argument);
  EXPECT_THROW(stress_at(m, table, u, delta_t, p), std::invalid_argument);
  EXPECT_THROW(strain_at(m, u, p), std::invalid_argument);
  EXPECT_THROW(sample_plane_stress(m, table, u, -250.0, grid), std::invalid_argument);
  EXPECT_THROW(sample_plane_stress(m, table, u, delta_t, grid), std::invalid_argument);
}

TEST(PlaneGrid, CellCentredSamples) {
  const PlaneGrid grid = make_block_plane_grid(10.0, 2, 1, 4, 5.0);
  ASSERT_EQ(grid.xs.size(), 8u);
  ASSERT_EQ(grid.ys.size(), 4u);
  EXPECT_DOUBLE_EQ(grid.xs[0], 1.25);
  EXPECT_DOUBLE_EQ(grid.xs[4], 11.25);
  EXPECT_DOUBLE_EQ(grid.ys[3], 8.75);
  EXPECT_DOUBLE_EQ(grid.z, 5.0);
  EXPECT_EQ(grid.size(), 32u);
}

TEST(SamplePlaneStress, LayoutIsYMajor) {
  const mesh::HexMesh m = box_mesh(2);
  const MaterialTable table = MaterialTable::standard();
  Vec u(3 * m.num_nodes());
  // u_x = x so eps_xx = 1 everywhere; stress should be uniform => layout
  // cannot matter for values, so instead encode position: u_x = x * y.
  for (la::idx_t node = 0; node < m.num_nodes(); ++node) {
    const mesh::Point3 p = m.node_pos(node);
    u[dof_of(node, 0)] = p.x * p.y;
  }
  PlaneGrid grid;
  grid.xs = {0.25, 0.75};
  grid.ys = {0.25, 0.75};
  grid.z = 0.5;
  const auto stress = sample_plane_stress(m, table, u, 0.0, grid);
  ASSERT_EQ(stress.size(), 4u);
  // eps_xx = y: index 0 -> y=0.25, index 2 -> y=0.75 (y-major ordering).
  EXPECT_GT(stress[2][0], stress[0][0]);
  EXPECT_NEAR(stress[1][0], stress[0][0], 1e-9);  // same y, different x
}

TEST(NormalizedMae, DefinitionAndEdgeCases) {
  const std::vector<double> ref{10.0, -10.0, 0.0, 5.0};
  const std::vector<double> test{11.0, -10.0, 1.0, 5.0};
  // mean |diff| = (1 + 0 + 1 + 0)/4 = 0.5; max |ref| = 10.
  EXPECT_NEAR(normalized_mae(ref, test), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(normalized_mae({0.0, 0.0}, {0.0, 0.0}), 0.0);
  EXPECT_THROW(normalized_mae({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(normalized_mae({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ms::fem
