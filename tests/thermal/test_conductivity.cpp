// TSV-aware effective block conductivity: dummy blocks conduct like bulk
// silicon, every estimate respects the Voigt/Reuss bracket, and the active
// block comes out transversely isotropic (fast vertical via, liner-shielded
// in plane). Plus the orthotropic conduction element that consumes it.

#include <gtest/gtest.h>

#include <cmath>

#include "fem/material.hpp"
#include "mesh/tsv_block.hpp"
#include "thermal/conduction.hpp"
#include "thermal/conduction_assembler.hpp"

namespace ms::thermal {
namespace {

const mesh::TsvGeometry kGeometry{15.0, 5.0, 0.5, 50.0};
const fem::MaterialTable kMaterials = fem::MaterialTable::standard();

TEST(BlockConductivity, DummyBlockIsBulkSilicon) {
  const double k_si = kMaterials.at(mesh::MaterialId::Silicon).conductivity;
  const BlockConductivity k =
      block_conductivity(kGeometry, kMaterials, /*is_tsv=*/false, ConductivityModel::kTsvAware);
  EXPECT_DOUBLE_EQ(k.in_plane, k_si);
  EXPECT_DOUBLE_EQ(k.through_plane, k_si);
}

TEST(BlockConductivity, TsvBlockRespectsVoigtReussBounds) {
  const double voigt = effective_block_conductivity(kGeometry, kMaterials);
  const double reuss = reuss_block_conductivity(kGeometry, kMaterials);
  ASSERT_LT(reuss, voigt);  // phases differ, so the bracket is proper

  const BlockConductivity k =
      block_conductivity(kGeometry, kMaterials, /*is_tsv=*/true, ConductivityModel::kTsvAware);
  EXPECT_GE(k.in_plane, reuss);
  EXPECT_LE(k.in_plane, voigt);
  EXPECT_GE(k.through_plane, reuss);
  EXPECT_LE(k.through_plane, voigt);
  // The through-plane estimate IS the Voigt average (parallel vertical paths).
  EXPECT_DOUBLE_EQ(k.through_plane, voigt);
}

TEST(BlockConductivity, AnisotropyMatchesThePhysics) {
  const double k_si = kMaterials.at(mesh::MaterialId::Silicon).conductivity;
  const BlockConductivity k =
      block_conductivity(kGeometry, kMaterials, /*is_tsv=*/true, ConductivityModel::kTsvAware);
  // Copper helps vertically (k_cu > k_si) ...
  EXPECT_GT(k.through_plane, k_si);
  // ... but the low-k liner shields the via laterally.
  EXPECT_LT(k.in_plane, k_si);
  EXPECT_GT(k.through_plane / k.in_plane, 1.1);
}

TEST(BlockConductivity, ViaAveragedModelIsIsotropicVoigtForEveryBlock) {
  const double voigt = effective_block_conductivity(kGeometry, kMaterials);
  for (bool is_tsv : {true, false}) {
    const BlockConductivity k =
        block_conductivity(kGeometry, kMaterials, is_tsv, ConductivityModel::kViaAveraged);
    EXPECT_DOUBLE_EQ(k.in_plane, voigt);
    EXPECT_DOUBLE_EQ(k.through_plane, voigt);
  }
}

TEST(BlockConductivity, DegeneratesToMatrixWhenPhasesMatch) {
  // Equal phase conductivities: every mixing rule must return that value.
  fem::Material si = fem::silicon();
  fem::Material cu = fem::copper();
  fem::Material liner = fem::sio2_liner();
  cu.conductivity = si.conductivity;
  liner.conductivity = si.conductivity;
  const fem::MaterialTable table({si, cu, liner, fem::organic_substrate()});

  EXPECT_NEAR(effective_block_conductivity(kGeometry, table), si.conductivity, 1e-9);
  EXPECT_NEAR(reuss_block_conductivity(kGeometry, table), si.conductivity, 1e-9);
  EXPECT_NEAR(maxwell_garnett_in_plane_conductivity(kGeometry, table), si.conductivity, 1e-9);
}

TEST(BlockConductivity, MaxwellGarnettTracksLinerConductivity) {
  // A better-conducting liner must never reduce the in-plane estimate.
  fem::Material liner = fem::sio2_liner();
  const double base = maxwell_garnett_in_plane_conductivity(kGeometry, kMaterials);
  liner.conductivity = 50.0;
  const fem::MaterialTable improved(
      {fem::silicon(), fem::copper(), liner, fem::organic_substrate()});
  EXPECT_GT(maxwell_garnett_in_plane_conductivity(kGeometry, improved), base);
}

TEST(ConductionElement, OrthotropicMatchesIsotropicWhenAxesAgree) {
  const auto iso = hex8_conduction_stiffness(120.0, 3.0, 4.0, 5.0);
  const auto ortho = hex8_conduction_stiffness(120.0, 120.0, 120.0, 3.0, 4.0, 5.0);
  for (int i = 0; i < kCondDofs * kCondDofs; ++i) EXPECT_DOUBLE_EQ(ortho[i], iso[i]);
}

TEST(ConductionElement, OrthotropicRowsSumToZero) {
  // Constant temperature field carries no flux regardless of the tensor.
  const auto ke = hex8_conduction_stiffness(10.0, 80.0, 400.0, 3.0, 4.0, 5.0);
  for (int a = 0; a < kCondDofs; ++a) {
    double row = 0.0;
    for (int b = 0; b < kCondDofs; ++b) row += ke[a * kCondDofs + b];
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(ConductionElement, AxisConductivityScalesItsOwnGradientTerm) {
  // A 1D z-gradient on a unit cube sees only kz: energy = sum_ab Ke[a][b]
  // T_a T_b with T = z must scale linearly in kz and ignore kx, ky.
  const auto energy_z = [](double kx, double ky, double kz) {
    const auto ke = hex8_conduction_stiffness(kx, ky, kz, 1.0, 1.0, 1.0);
    const double t[kCondDofs] = {0, 0, 0, 0, 1, 1, 1, 1};  // T = z on corners
    double e = 0.0;
    for (int a = 0; a < kCondDofs; ++a) {
      for (int b = 0; b < kCondDofs; ++b) e += ke[a * kCondDofs + b] * t[a] * t[b];
    }
    return e;
  };
  const double base = energy_z(100.0, 100.0, 50.0);
  EXPECT_NEAR(energy_z(1.0, 1.0, 50.0), base, 1e-12 * std::abs(base));
  EXPECT_NEAR(energy_z(100.0, 100.0, 100.0), 2.0 * base, 1e-9 * std::abs(base));
}

TEST(BlockConductivity, RejectsNonPositivePhaseConductivity) {
  fem::Material liner = fem::sio2_liner();
  liner.conductivity = 0.0;
  const fem::MaterialTable broken(
      {fem::silicon(), fem::copper(), liner, fem::organic_substrate()});
  EXPECT_THROW((void)block_conductivity(kGeometry, broken, true, ConductivityModel::kTsvAware),
               std::invalid_argument);
  EXPECT_THROW((void)hex8_conduction_stiffness(0.0, 1.0, 1.0, 1.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(BlockCapacity, RejectsNonPositivePhaseCapacity) {
  // Every transient domain takes its capacities from block_capacity (through
  // array_block_capacities or the package thermal model): a phase that
  // stores no heat would leave the stepping operator singular.
  fem::Material silicon = fem::silicon();
  silicon.volumetric_heat_capacity = 0.0;
  const fem::MaterialTable no_silicon(
      {silicon, fem::copper(), fem::sio2_liner(), fem::organic_substrate()});
  EXPECT_THROW((void)block_capacity(kGeometry, no_silicon, false, ConductivityModel::kTsvAware),
               std::invalid_argument);
  fem::Material copper = fem::copper();
  copper.volumetric_heat_capacity = 0.0;
  const fem::MaterialTable no_copper(
      {fem::silicon(), copper, fem::sio2_liner(), fem::organic_substrate()});
  EXPECT_THROW((void)block_capacity(kGeometry, no_copper, true, ConductivityModel::kTsvAware),
               std::invalid_argument);
}

}  // namespace
}  // namespace ms::thermal
