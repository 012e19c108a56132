#include "thermal/conduction.hpp"

#include <gtest/gtest.h>

#include "thermal/conduction_assembler.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::thermal {
namespace {

mesh::HexMesh bar_mesh(double side, double height, int elems_xy, int elems_z) {
  const auto lines = [](int n, double length) {
    std::vector<double> v(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) v[i] = length * i / n;
    return v;
  };
  return mesh::HexMesh(lines(elems_xy, side), lines(elems_xy, side), lines(elems_z, height));
}

/// Conductivity k on every element, in plane and through it.
ConductivityField isotropic(const mesh::HexMesh& mesh, double k) {
  const Vec per_elem(static_cast<std::size_t>(mesh.num_elems()), k);
  return {per_elem, per_elem};
}

TEST(ConductionElement, SymmetricWithConstantTemperatureInKernel) {
  const auto ke = hex8_conduction_stiffness(120.0, 1.5, 2.0, 0.5);
  for (int a = 0; a < kCondDofs; ++a) {
    double row_sum = 0.0;
    for (int b = 0; b < kCondDofs; ++b) {
      EXPECT_NEAR(ke[a * kCondDofs + b], ke[b * kCondDofs + a], 1e-15);
      row_sum += ke[a * kCondDofs + b];
    }
    // A uniform temperature produces no flux.
    EXPECT_NEAR(row_sum, 0.0, 1e-15);
    EXPECT_GT(ke[a * kCondDofs + a], 0.0);
  }
}

TEST(ConductionElement, ScalesLinearlyWithConductivity) {
  const auto k1 = hex8_conduction_stiffness(100.0, 1.0, 1.0, 2.0);
  const auto k2 = hex8_conduction_stiffness(200.0, 1.0, 1.0, 2.0);
  for (int i = 0; i < kCondDofs * kCondDofs; ++i) EXPECT_NEAR(k2[i], 2.0 * k1[i], 1e-12);
}

TEST(ConductionElement, LinearTemperatureGivesExactNodalFlux) {
  // T = z on a box: flux through each z face is k A / hz * (um -> m scale).
  const double k = 50.0, hx = 2.0, hy = 3.0, hz = 4.0;
  const auto ke = hex8_conduction_stiffness(k, hx, hy, hz);
  std::array<double, kCondDofs> t{};
  for (int a = 0; a < fem::kHexNodes; ++a) {
    t[a] = 0.5 * hz * (1.0 + fem::kHexCorners[a][2]);
  }
  double top_flux = 0.0;
  for (int a = 4; a < 8; ++a) {
    for (int b = 0; b < kCondDofs; ++b) top_flux += ke[a * kCondDofs + b] * t[b];
  }
  // Unit gradient in z: flux = k * area, with the um -> m conversion.
  EXPECT_NEAR(top_flux, k * kMicro * hx * hy, 1e-12);
}

TEST(ConductionElement, TopFluxLoadSharesFaceEqually) {
  const auto fe = hex8_top_flux_load(2.0, 3.0, 5.0);
  for (int a = 0; a < 4; ++a) EXPECT_DOUBLE_EQ(fe[a], 0.0);
  for (int a = 4; a < 8; ++a) EXPECT_DOUBLE_EQ(fe[a], 2.0 * 15.0 / 4.0);
}

TEST(ConductionElement, FaceFilmMatrixIntegratesToArea)
{
  const double film = 1.0e4, hx = 2.0, hy = 5.0;
  const auto me = hex8_face_film_matrix(film, hx, hy, /*face=*/1);
  double total = 0.0;
  for (double v : me) total += v;
  EXPECT_NEAR(total, film * kMicro * kMicro * hx * hy, 1e-18);
  // Bottom-face nodes untouched.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < kCondDofs; ++b) EXPECT_DOUBLE_EQ(me[a * kCondDofs + b], 0.0);
  }
}

TEST(ConductionSlab, MatchesAnalytic1dProfileWithIdealSink) {
  // Uniform top flux q through a slab with T = ambient at z = 0:
  // T(z) = ambient + q z / k, nodally exact for linear elements.
  const double side = 10.0, height = 100.0, k = 100.0, q_mm2 = 1.0, ambient = 25.0;
  const mesh::HexMesh mesh = bar_mesh(side, height, 2, 8);
  const ConductivityField conductivities = isotropic(mesh, k);
  const PowerMap power(1, 1, side, side, q_mm2);

  ThermalSolveOptions options;
  options.method = "direct";
  options.ambient = ambient;
  const TemperatureField field = solve_power_map(mesh, conductivities, power, options);

  const double slope = (q_mm2 * kPerMm2ToPerUm2) / (k * kMicro);  // K per um
  for (idx_t node = 0; node < mesh.num_nodes(); ++node) {
    const mesh::Point3 p = mesh.node_pos(node);
    EXPECT_NEAR(field.nodal()[node], ambient + slope * p.z, 1e-9) << "node " << node;
  }
}

TEST(ConductionSlab, ConvectiveSinkAddsFilmResistance) {
  // Robin sink at z = 0: T(0) = ambient + q / h, then the conductive slope.
  const double side = 10.0, height = 50.0, k = 149.0, q_mm2 = 2.0, ambient = 25.0;
  const double film = 1.0e4;  // W/(m^2 K)
  const mesh::HexMesh mesh = bar_mesh(side, height, 2, 5);
  const ConductivityField conductivities = isotropic(mesh, k);
  const PowerMap power(1, 1, side, side, q_mm2);

  ThermalSolveOptions options;
  options.method = "direct";
  options.ambient = ambient;
  options.sink_film_coefficient = film;
  const TemperatureField field = solve_power_map(mesh, conductivities, power, options);

  const double q_um2 = q_mm2 * kPerMm2ToPerUm2;
  const double t0 = ambient + q_um2 / (film * kMicro * kMicro);
  const double slope = q_um2 / (k * kMicro);
  for (idx_t node = 0; node < mesh.num_nodes(); ++node) {
    const mesh::Point3 p = mesh.node_pos(node);
    EXPECT_NEAR(field.nodal()[node], t0 + slope * p.z, 1e-7) << "node " << node;
  }
}

TEST(ConductionSlab, CgAndDirectAgree) {
  const mesh::HexMesh mesh = bar_mesh(20.0, 50.0, 3, 4);
  const ConductivityField conductivities = isotropic(mesh, 149.0);
  PowerMap power(2, 2, 20.0, 20.0, 1.0);
  power.set_tile(0, 0, 4.0);  // break lateral symmetry

  ThermalSolveOptions direct;
  direct.method = "direct";
  ThermalSolveOptions cg;
  cg.method = "cg";
  cg.rel_tol = 1e-12;
  const TemperatureField a = solve_power_map(mesh, conductivities, power, direct);
  const TemperatureField b = solve_power_map(mesh, conductivities, power, cg);
  for (std::size_t i = 0; i < a.nodal().size(); ++i) {
    EXPECT_NEAR(a.nodal()[i], b.nodal()[i], 1e-6);
  }
}

TEST(ConductionSlab, DirectSolveIsBitIdenticalWithoutCacheColdAndWarm) {
  // The one direct-solve path: no cache, a cold cache, and a warm cache (the
  // resident key skips the operator assembly) give the same field bit for
  // bit from the same factor. The sink temperature is not in the key: a warm
  // hit at another ambient equals that ambient's own uncached solve.
  const mesh::HexMesh mesh = bar_mesh(20.0, 50.0, 3, 4);
  const ConductivityField conductivities = isotropic(mesh, 149.0);
  PowerMap power(2, 2, 20.0, 20.0, 1.0);
  power.set_tile(0, 0, 4.0);

  ThermalSolveOptions options;
  options.method = "direct";
  options.ambient = 40.0;
  ThermalSolveStats plain_stats;
  const TemperatureField expected =
      solve_power_map(mesh, conductivities, power, options, &plain_stats);
  ThermalSolveOptions other = options;
  other.ambient = 10.0;
  const TemperatureField other_expected = solve_power_map(mesh, conductivities, power, other);

  la::FactorCache cache;
  options.factor_cache = &cache;
  options.factor_key = "steady";
  ThermalSolveStats cold_stats, warm_stats;
  const TemperatureField cold = solve_power_map(mesh, conductivities, power, options, &cold_stats);
  const TemperatureField warm = solve_power_map(mesh, conductivities, power, options, &warm_stats);
  other.factor_cache = &cache;
  other.factor_key = options.factor_key;
  ThermalSolveStats other_stats;
  const TemperatureField other_warm =
      solve_power_map(mesh, conductivities, power, other, &other_stats);

  EXPECT_EQ(cold.nodal(), expected.nodal());
  EXPECT_EQ(warm.nodal(), expected.nodal());
  EXPECT_EQ(other_warm.nodal(), other_expected.nodal());
  EXPECT_NE(other_warm.nodal(), expected.nodal());
  for (const ThermalSolveStats* s : {&cold_stats, &warm_stats, &other_stats}) {
    EXPECT_EQ(s->factor_nnz, plain_stats.factor_nnz);
    EXPECT_EQ(s->fill_ratio, plain_stats.fill_ratio);
    EXPECT_EQ(s->num_supernodes, plain_stats.num_supernodes);
    EXPECT_EQ(s->ordering, plain_stats.ordering);
  }
  EXPECT_GT(plain_stats.factor_nnz, 0);
  EXPECT_EQ(plain_stats.num_factorizations, 1);
  EXPECT_EQ(cold_stats.num_factorizations, 1);
  EXPECT_EQ(warm_stats.num_factorizations, 0);
  EXPECT_EQ(other_stats.num_factorizations, 0);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(EffectiveConductivity, LiesBetweenConstituentsAndExceedsSilicon) {
  const mesh::TsvGeometry geometry{15.0, 5.0, 0.5, 50.0};
  const fem::MaterialTable materials = fem::MaterialTable::standard();
  const double k_eff = effective_block_conductivity(geometry, materials);
  const double k_si = materials.at(mesh::MaterialId::Silicon).conductivity;
  const double k_cu = materials.at(mesh::MaterialId::Copper).conductivity;
  EXPECT_GT(k_eff, k_si);  // the copper via conducts better than bulk Si
  EXPECT_LT(k_eff, k_cu);
}

TEST(MaterialTable, StandardMaterialsCarryConductivities) {
  const fem::MaterialTable materials = fem::MaterialTable::standard();
  EXPECT_GT(materials.at(mesh::MaterialId::Silicon).conductivity, 0.0);
  EXPECT_GT(materials.at(mesh::MaterialId::Copper).conductivity,
            materials.at(mesh::MaterialId::Silicon).conductivity);
  EXPECT_GT(materials.at(mesh::MaterialId::Liner).conductivity, 0.0);
  EXPECT_GT(materials.at(mesh::MaterialId::Organic).conductivity, 0.0);
}

TEST(MaterialTable, StandardMaterialsCarryHeatCapacities) {
  const fem::MaterialTable materials = fem::MaterialTable::standard();
  // Solids cluster around 1-4 MJ/(m^3 K); copper is the densest store.
  for (auto id : {mesh::MaterialId::Silicon, mesh::MaterialId::Copper, mesh::MaterialId::Liner,
                  mesh::MaterialId::Organic}) {
    EXPECT_GT(materials.at(id).volumetric_heat_capacity, 1.0e6);
    EXPECT_LT(materials.at(id).volumetric_heat_capacity, 4.0e6);
  }
  EXPECT_GT(materials.at(mesh::MaterialId::Copper).volumetric_heat_capacity,
            materials.at(mesh::MaterialId::Silicon).volumetric_heat_capacity);
}

TEST(CapacitanceElement, ConsistentMatrixIntegratesToThermalMass) {
  const double c = 1.63e6, hx = 1.5, hy = 2.0, hz = 0.5;
  const auto me = hex8_capacitance_matrix(c, hx, hy, hz);
  const double mass = c * hx * hy * hz * kMicro * kMicro * kMicro;
  double total = 0.0;
  for (int a = 0; a < kCondDofs; ++a) {
    double row = 0.0;
    for (int b = 0; b < kCondDofs; ++b) {
      EXPECT_NEAR(me[a * kCondDofs + b], me[b * kCondDofs + a], 1e-25);
      EXPECT_GT(me[a * kCondDofs + b], 0.0);  // trilinear mass is positive
      row += me[a * kCondDofs + b];
    }
    // Each row integrates N_a against 1: the lumped share c V / 8.
    EXPECT_NEAR(row, mass / 8.0, 1e-12 * mass);
    total += row;
  }
  EXPECT_NEAR(total, mass, 1e-12 * mass);
  // Diagonal of the tensor-product mass is c V / 27.
  EXPECT_NEAR(me[0], mass / 27.0, 1e-12 * mass);
}

TEST(CapacitanceElement, LumpedMatchesConsistentRowSums) {
  const double c = 3.45e6, hx = 2.0, hy = 2.0, hz = 5.0;
  const auto lumped = hex8_lumped_capacitance(c, hx, hy, hz);
  const auto me = hex8_capacitance_matrix(c, hx, hy, hz);
  for (int a = 0; a < kCondDofs; ++a) {
    double row = 0.0;
    for (int b = 0; b < kCondDofs; ++b) row += me[a * kCondDofs + b];
    EXPECT_NEAR(lumped[a], row, 1e-12 * row);
  }
  EXPECT_THROW(hex8_lumped_capacitance(0.0, 1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(hex8_capacitance_matrix(-1.0, 1.0, 1.0, 1.0), std::invalid_argument);
}

TEST(CapacitanceAssembly, AssembledDiagonalSumsToTotalMass) {
  const mesh::HexMesh mesh = bar_mesh(10.0, 20.0, 2, 3);
  const Vec capacity(static_cast<std::size_t>(mesh.num_elems()), 2.0e6);
  const double total_mass = 2.0e6 * (10.0 * 10.0 * 20.0) * 1e-18;
  for (bool lumped : {true, false}) {
    const CsrMatrix m = CsrMatrix::from_triplets(capacitance_triplets(mesh, capacity, lumped));
    double sum = 0.0;
    for (double v : m.values()) sum += v;
    EXPECT_NEAR(sum, total_mass, 1e-12 * total_mass);
    EXPECT_LE(m.symmetry_error(), 1e-25);
  }
  // Lumped assembly is strictly diagonal.
  const CsrMatrix diag = CsrMatrix::from_triplets(capacitance_triplets(mesh, capacity, true));
  EXPECT_EQ(diag.nnz(), static_cast<la::offset_t>(mesh.num_nodes()));
}

TEST(CapacitanceAssembly, EffectiveBlockCapacityIsVolumeAverage) {
  const mesh::TsvGeometry geometry{15.0, 5.0, 0.5, 50.0};
  const fem::MaterialTable materials = fem::MaterialTable::standard();
  const double c_eff = effective_block_capacity(geometry, materials);
  const double c_si = materials.at(mesh::MaterialId::Silicon).volumetric_heat_capacity;
  const double c_cu = materials.at(mesh::MaterialId::Copper).volumetric_heat_capacity;
  EXPECT_GT(c_eff, c_si);  // copper stores more heat per volume than Si
  EXPECT_LT(c_eff, c_cu);
  // Dummy blocks under kTsvAware are bulk silicon; kViaAveraged ignores the
  // flag.
  EXPECT_DOUBLE_EQ(
      block_capacity(geometry, materials, false, ConductivityModel::kTsvAware), c_si);
  EXPECT_DOUBLE_EQ(
      block_capacity(geometry, materials, true, ConductivityModel::kTsvAware), c_eff);
  EXPECT_DOUBLE_EQ(
      block_capacity(geometry, materials, false, ConductivityModel::kViaAveraged), c_eff);
}

}  // namespace
}  // namespace ms::thermal
